"""Closed-form verdict oracle.

Expected verdicts are computed from the summand list of a request, never
by calling ``fourfold``: rank, b1, Euler number and signature add over
summands (Euler loses 2 per connected-sum neck), determinants multiply,
the Dirac index is (c1^2 - tau)/8, the moduli dimension is
(c1^2 - 2 chi - 3 tau)/4, the bordism value follows from the summand
count l (nontrivial for l in {2, 3}), and scan rows follow
r >= (8/3)G - 4s - 4 (Einstein obstructed) and r <= 8G - 4s - 4
(Hitchin-Thorpe).

A program report is reduced to a flat dict of verdict fields, from the
JSON form or from the text form, and compared key by key with the
expected dict.  Fields the oracle does not name are ignored, so report
fields added later do not break the check.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

# Point spin bordism groups in dimensions 0..7.
SPIN_BORDISM = {0: "Z", 1: "Z/2", 2: "Z/2", 3: "0", 4: "Z", 5: "0", 6: "0", 7: "0"}


# ---------------------------------------------------------------- summands
#
# A summand is a tuple: ("K3",), ("SP", g, h), ("CP2",), ("~CP2",),
# ("S1xS3",), ("S4",) or ("FILE", path, label, source) where ``source`` is
# the summand list the dense descriptor was congruent to.


def summand_invariants(s) -> dict:
    tok = s[0]
    if tok == "K3":
        return dict(b1=0, rank=22, chi=24, tau=-16, det=-1, c1sq=0,
                    chern_even=True, family=True, name="K3")
    if tok == "SP":
        g, h = s[1], s[2]
        odd = g % 2 == 1 and h % 2 == 1
        return dict(b1=2 * (g + h), rank=2 + 4 * g * h, chi=4 * (g - 1) * (h - 1),
                    tau=0, det=-1, c1sq=8 * (g - 1) * (h - 1),
                    chern_even=odd, family=odd, name=f"SP({g},{h})")
    if tok == "CP2":
        return dict(b1=0, rank=1, chi=3, tau=1, det=1, c1sq=None,
                    chern_even=True, family=False, name="CP2")
    if tok == "~CP2":
        return dict(b1=0, rank=1, chi=3, tau=-1, det=-1, c1sq=None,
                    chern_even=True, family=False, name="~CP2")
    if tok == "S1xS3":
        return dict(b1=1, rank=0, chi=0, tau=0, det=1, c1sq=None,
                    chern_even=True, family=False, name="S1xS3")
    if tok == "S4":
        return dict(b1=0, rank=0, chi=2, tau=0, det=1, c1sq=None,
                    chern_even=True, family=False, name="S4")
    if tok == "FILE":
        src = sum_invariants(s[3])
        return dict(src, family=False, name=f"CUSTOM({s[2]})")
    raise ValueError(f"unknown summand {s!r}")


def sum_invariants(summands) -> dict:
    parts = [summand_invariants(s) for s in summands]
    canonical = all(p["c1sq"] is not None for p in parts)
    return dict(
        b1=sum(p["b1"] for p in parts),
        rank=sum(p["rank"] for p in parts),
        chi=sum(p["chi"] for p in parts) - 2 * (len(parts) - 1),
        tau=sum(p["tau"] for p in parts),
        det=math.prod(p["det"] for p in parts),
        c1sq=sum(p["c1sq"] for p in parts) if canonical else None,
        chern_even=all(p["chern_even"] for p in parts),
        family=all(p["family"] for p in parts),
        count=len(parts),
        names=[p["name"] for p in parts],
    )


def negative_definite(summands) -> bool:
    return all(s[0] in ("~CP2", "S1xS3", "S4") for s in summands)


def explicit_c1(summands, odd_entries):
    """Characteristic c1 coordinates: the canonical class on K3 and SP
    summands, the given odd entries on CP2 and ~CP2 summands.  Returns
    (coordinates, c1^2)."""
    coords, square, odd = [], 0, iter(odd_entries)
    for s in summands:
        tok = s[0]
        if tok == "K3":
            coords += [0] * 22
        elif tok == "SP":
            g, h = s[1], s[2]
            coords += [2 * (1 - g), 2 * (1 - h)] + [0] * (4 * g * h)
            square += 8 * (g - 1) * (h - 1)
        elif tok in ("CP2", "~CP2"):
            a = next(odd)
            coords.append(a)
            square += a * a if tok == "CP2" else -a * a
        elif tok not in ("S1xS3", "S4"):
            raise ValueError(f"no explicit c1 for summand {s!r}")
    return coords, square


def pi_radical(coefficient: int, radicand: int) -> tuple[int, int]:
    """coefficient * sqrt(radicand) with a squarefree radicand."""
    if coefficient == 0 or radicand == 0:
        return 0, 0
    out, rad, d = 1, radicand, 2
    while d * d <= rad:
        while rad % (d * d) == 0:
            rad //= d * d
            out *= d
        d += 1
    return coefficient * out, rad


def radical_text(coefficient: int, radicand: int) -> str:
    if coefficient == 0:
        return "0"
    if radicand == 1:
        return f"{coefficient}*pi"
    return f"{coefficient}*sqrt({radicand})*pi"


# ------------------------------------------------------------ expectations


class Refused(Exception):
    """The request must be refused with the carried exit code."""

    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


def _manifold_fields(inv: dict, prefix: str = "manifold") -> dict:
    return {
        f"{prefix}.b1": inv["b1"],
        f"{prefix}.euler": inv["chi"],
        f"{prefix}.signature": inv["tau"],
        f"{prefix}.h2_rank": inv["rank"],
        f"{prefix}.form_determinant": inv["det"],
        f"{prefix}.summands": inv["names"],
    }


def _spinc(inv: dict, c1: dict | None):
    """(c1^2, source, certified) or None when no spin^c class is given.

    ``c1`` is None for the canonical class, or a dict with the explicit
    square and whether the vector is characteristic and canonical."""
    if c1 is None:
        if inv["c1sq"] is None:
            return None
        return inv["c1sq"], "canonical", inv["family"]
    if not c1["characteristic"]:
        raise Refused(1)
    return c1["square"], "explicit", inv["family"] and c1["canonical"]


def _spinc_fields(inv: dict, square: int, source: str) -> dict:
    index = (square - inv["tau"]) // 8
    index_even = index % 2 == 0
    return {
        "spinc.source": source,
        "spinc.dirac_index": index,
        "spinc.moduli_dimension": (square - 2 * inv["chi"] - 3 * inv["tau"]) // 4,
        "spinc.index_even": index_even,
        "spinc.chern_even": inv["chern_even"],
        "spinc.holds": index_even and inv["chern_even"],
    }


def _bordism(inv: dict, certified: bool) -> dict | None:
    """Bordism verdict fields, or None when no verdict is established."""
    l = inv["count"]
    if not certified or l < 2:
        return None
    d = l - 1
    out = {"bordism.applicable": True, "bordism.dimension": d,
           "bordism.value": "nontrivial" if l in (2, 3) else "trivial"}
    if d in SPIN_BORDISM:
        out["bordism.group"] = SPIN_BORDISM[d]
    return out


def _require_nontrivial(inv: dict, certified: bool) -> None:
    verdict = _bordism(inv, certified)
    if verdict is None or verdict["bordism.value"] != "nontrivial":
        raise Refused(2)


def expect(req: dict) -> tuple[int, dict]:
    """(exit code, expected verdict fields) for a request spec.

    ``req`` holds ``command`` and the structured inputs the argv was
    built from: ``summands``, optional ``c1``, and per-command options.
    """
    try:
        return 0, _expect(req)
    except Refused as refused:
        return refused.code, {}


def _expect(req: dict) -> dict:
    cmd = req["command"]
    if req.get("syntax_error"):
        raise Refused(1)
    if cmd == "scan":
        return _expect_scan(req)
    inv = sum_invariants(req["summands"])
    out = _manifold_fields(inv)
    sp = _spinc(inv, req.get("c1"))
    if cmd == "analyze":
        if sp is None:
            out["spinc"] = None
        else:
            square, source, certified = sp
            out.update(_spinc_fields(inv, square, source))
            out.update(_bordism(inv, certified) or {"bordism.applicable": False})
        out["hitchin_thorpe"] = 3 * abs(inv["tau"]) <= 2 * inv["chi"]
        return out
    if sp is None:
        raise Refused(1)
    square, source, certified = sp
    out.update(_spinc_fields(inv, square, source))
    if cmd == "star":
        out["result.holds"] = out["spinc.holds"]
        return out
    if cmd == "sigma0":
        verdict = _bordism(inv, certified)
        if verdict is None:
            raise Refused(2)
        out.update(verdict)
        return out
    if cmd == "genus":
        _require_nontrivial(inv, certified)
        n, p, g = req["self_int"], req["pairing"], req.get("genus")
        if g is not None:
            if g < 1 or n < 0:
                raise Refused(2)
            out["result.embedding_obstructed"] = n > p + 2 * g - 2
        else:
            if n < 0:
                raise Refused(2)
            out["result.min_genus"] = max(1, -(-(n - p + 2) // 2))
        return out
    other = sum_invariants(req["other"])
    _require_nontrivial(inv, certified)
    if not negative_definite(req["other"]):
        raise Refused(2)
    out.update(_manifold_fields(other, "result.n"))
    del out["result.n.summands"]
    if cmd == "yamabe":
        if not req["nonneg_scalar"]:
            raise Refused(2)
        coefficient, radicand = pi_radical(-4, 2 * square)
        out["result.yamabe_coefficient"] = coefficient
        out["result.yamabe_radicand"] = radicand
        out["result.yamabe_text"] = radical_text(coefficient, radicand)
        return out
    if cmd == "einstein":
        l = inv["count"]
        out["result.einstein_obstructed"] = (
            12 * l - 3 * (2 * other["chi"] + 3 * other["tau"]) >= square
        )
        return out
    raise ValueError(f"unknown command {cmd}")


def _expect_scan(req: dict) -> dict:
    products = req["products"]
    if len(products) != 2:
        raise Refused(1)
    if any(g < 1 or g % 2 == 0 for pair in products for g in pair):
        raise Refused(1)
    s, r_max = req["s"], req["r_max"]
    big_g = sum((g - 1) * (h - 1) for g, h in products)
    lower = Fraction(8 * big_g, 3) - 4 * s - 4
    upper = 8 * big_g - 4 * s - 4
    lo = max(0, math.ceil(lower))
    return {
        "scan.G": big_g,
        "scan.s": s,
        "scan.r_max": r_max,
        "scan.lower": [lower.numerator, lower.denominator],
        "scan.upper": upper,
        "scan.window": [lo, upper] if lo <= upper else None,
        "scan.rows": [[r, r >= lower, r <= upper] for r in range(r_max + 1)],
    }


# ------------------------------------------------------------- extraction


def verdict_from_json(text: str) -> dict:
    report = json.loads(text)
    out = {}
    m = report.get("manifold")
    if m is not None:
        for key in ("b1", "euler", "signature", "h2_rank", "form_determinant", "summands"):
            out[f"manifold.{key}"] = m.get(key)
    if "spinc" in report:
        sp = report["spinc"]
        if sp is None:
            out["spinc"] = None
        else:
            cond = sp.get("condition", {})
            out.update({
                "spinc.source": sp.get("source"),
                "spinc.dirac_index": sp.get("dirac_index"),
                "spinc.moduli_dimension": sp.get("moduli_dimension"),
                "spinc.index_even": cond.get("index_even"),
                "spinc.chern_even": cond.get("chern_even"),
                "spinc.holds": cond.get("holds"),
            })
    if "bordism" in report:
        for key, value in report["bordism"].items():
            if key != "reason":
                out[f"bordism.{key}"] = value
    if "hitchin_thorpe" in report:
        out["hitchin_thorpe"] = report["hitchin_thorpe"]
    res = report.get("result") or {}
    cmd = report.get("command")
    if cmd == "scan":
        lb = res.get("einstein_lower_bound", {})
        out.update({
            "scan.G": res.get("G"),
            "scan.s": res.get("s"),
            "scan.r_max": res.get("r_max"),
            "scan.lower": [lb.get("numerator"), lb.get("denominator")],
            "scan.upper": res.get("hitchin_thorpe_upper_bound"),
            "scan.window": res.get("integer_window"),
            "scan.rows": [[row.get("r"), row.get("einstein_obstructed"),
                           row.get("hitchin_thorpe")] for row in res.get("rows", [])],
        })
    elif cmd == "star":
        out["result.holds"] = res.get("holds")
    elif cmd == "genus":
        for key in ("min_genus", "embedding_obstructed"):
            if key in res:
                out[f"result.{key}"] = res[key]
    elif cmd == "yamabe":
        out["result.yamabe_coefficient"] = res.get("coefficient")
        out["result.yamabe_radicand"] = res.get("radicand")
        out["result.yamabe_text"] = res.get("text")
    elif cmd == "einstein":
        out["result.einstein_obstructed"] = res.get("einstein_obstructed")
    n = res.get("n1") or res.get("n2")
    if n is not None:
        for key in ("b1", "euler", "signature", "h2_rank", "form_determinant"):
            out[f"result.n.{key}"] = n.get(key)
    return out


_YES = {"yes": True, "no": False}
_TEXT_RULES = (
    (re.compile(r"manifold: b1=(-?\d+)  chi=(-?\d+)  tau=(-?\d+)  "
                r"rank\(H2\)=(\d+)  det\(Q\)=(-?\d+)$"),
     lambda m: {"manifold.b1": int(m[1]), "manifold.euler": int(m[2]),
                "manifold.signature": int(m[3]), "manifold.h2_rank": int(m[4]),
                "manifold.form_determinant": int(m[5])}),
    (re.compile(r"summands: (.*)$"), lambda m: {"manifold.summands": m[1].split(" # ")}),
    (re.compile(r"spin\^c \((canonical|explicit)\): c1 = "),
     lambda m: {"spinc.source": m[1]}),
    (re.compile(r"spin\^c: skipped"), lambda m: {"spinc": None}),
    (re.compile(r"dirac index a = (-?\d+)$"), lambda m: {"spinc.dirac_index": int(m[1])}),
    (re.compile(r"condition: index even: (yes|no); index Chern class even: (yes|no); "
                r"holds: (yes|no)$"),
     lambda m: {"spinc.index_even": _YES[m[1]], "spinc.chern_even": _YES[m[2]],
                "spinc.holds": _YES[m[3]]}),
    (re.compile(r"moduli dimension d = (-?\d+)$"),
     lambda m: {"spinc.moduli_dimension": int(m[1])}),
    (re.compile(r"bordism class: dimension (\d+), group (\S+), value (\w+)$"),
     lambda m: {"bordism.applicable": True, "bordism.dimension": int(m[1]),
                "bordism.group": m[2], "bordism.value": m[3]}),
    (re.compile(r"bordism class: not applicable"), lambda m: {"bordism.applicable": False}),
    (re.compile(r"hitchin-thorpe inequality: (yes|no)$"),
     lambda m: {"hitchin_thorpe": _YES[m[1]]}),
    (re.compile(r"yamabe invariant: (\S+) \("), lambda m: {"result.yamabe_text": m[1]}),
    (re.compile(r"einstein metric obstructed: (yes|no)$"),
     lambda m: {"result.einstein_obstructed": _YES[m[1]]}),
    (re.compile(r"minimal genus bound: (\d+)$"), lambda m: {"result.min_genus": int(m[1])}),
    (re.compile(r"embedding obstructed: (yes|no)$"),
     lambda m: {"result.embedding_obstructed": _YES[m[1]]}),
    (re.compile(r"G = (\d+), s = (\d+): einstein bound r >= (-?\d+)/(\d+), "
                r"hitchin-thorpe bound r <= (-?\d+)$"),
     lambda m: {"scan.G": int(m[1]), "scan.s": int(m[2]),
                "scan.lower": [int(m[3]), int(m[4])], "scan.upper": int(m[5])}),
    (re.compile(r"integer window: (\d+) <= r <= (-?\d+)$"),
     lambda m: {"scan.window": [int(m[1]), int(m[2])]}),
    (re.compile(r"integer window: empty$"), lambda m: {"scan.window": None}),
)
_SCAN_ROW = re.compile(r"\s*(\d+)\s+(yes|no)\s+(yes|no)$")


def verdict_from_text(text: str) -> dict:
    out = {}
    rows = []
    for line in text.splitlines():
        row = _SCAN_ROW.match(line)
        if row:
            rows.append([int(row[1]), _YES[row[2]], _YES[row[3]]])
            continue
        for pattern, fields in _TEXT_RULES:
            match = pattern.match(line)
            if match:
                out.update(fields(match))
                break
    if rows:
        out["scan.rows"] = rows
    return out


# Fields the text rendering does not show.
TEXT_HIDDEN = ("result.n.", "result.yamabe_coefficient", "result.yamabe_radicand",
               "scan.r_max", "result.holds")


def check(expected_code: int, expected: dict, json_mode: bool,
          code, stdout: str, stderr: str) -> str | None:
    """None when the response is correct, else a one-line reason."""
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    if expected_code != 0:
        prefix = "error: " if expected_code == 1 else "not applicable: "
        if stdout or not stderr.startswith(prefix):
            return f"refusal not reported as '{prefix.strip()}' on stderr alone"
        return None
    try:
        got = verdict_from_json(stdout) if json_mode else verdict_from_text(stdout)
    except (ValueError, AttributeError, TypeError) as exc:
        return f"unreadable report: {exc}"
    for key, want in expected.items():
        if not json_mode and key.startswith(TEXT_HIDDEN):
            continue
        if key not in got:
            return f"missing verdict field {key}"
        if got[key] != want:
            shown = repr(got[key])[:80]
            return f"{key} = {shown}, expected {repr(want)[:80]}"
    return None
