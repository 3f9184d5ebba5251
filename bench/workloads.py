"""Seeded request generation for the three workloads.

Every workload is a fixed template of request slots, so that every seed
asks for the same amount of work: equal-rank generators do not cost the
same (SP(15,1) takes a third longer to scan than SP(1,15)), and a seed
that only drew cheap variants would read as a speed-up.  The seed
chooses the order of requests, how summands are ordered and written,
option values that do not change the work, and, in ``queries``, which
manifold gets which generator, dealt so that each seed's pool holds
every generator equally often.  A round is one pass over the template;
round ``k`` of a seed is the same list in every run.

Each request is a dict with ``argv`` (what the program receives),
``code`` and ``expected`` (from :mod:`oracle`), ``json`` (whether the
report is read as JSON), ``summands`` (for exact size counters) and
``cap_s`` (the time cap).
"""

from __future__ import annotations

import itertools
import json
import os
import random

import oracle

WORKLOADS = ("queries", "scan", "rank_ladder")

# Seconds one round takes at the commit that introduced this benchmark, on
# a 2-vCPU x86-64 virtual machine with CPython 3.11.  A run serves
# round(--seconds / NOMINAL_ROUND_S) whole rounds, so the request list of
# a run depends on the seed and --seconds only, never on the speed.
NOMINAL_ROUND_S = {"queries": 2.6, "scan": 9.25, "rank_ladder": 8.5}

CAP_S = {"queries": 10.0, "scan": 30.0, "rank_ladder": 60.0}

# Generators grouped by H^2 rank; any member may replace another.
RANK_CLASSES = {
    6: [("SP", 1, 1)],
    14: [("SP", 1, 3), ("SP", 3, 1)],
    22: [("K3",), ("SP", 1, 5), ("SP", 5, 1)],
    38: [("SP", 3, 3), ("SP", 1, 9), ("SP", 9, 1)],
    "even": [("SP", 2, 1), ("SP", 1, 2)],
}


def _rng(seed: int, *labels) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed, *labels)))


def _token(s) -> str:
    if s[0] == "SP":
        return f"SP({s[1]},{s[2]})"
    if s[0] == "FILE":
        return "@" + s[1]
    return s[0]


def expression(summands, rng: random.Random) -> str:
    """Expression text; runs of equal generators become 'n*Gen'."""
    terms, i = [], 0
    while i < len(summands):
        j = i
        while j < len(summands) and summands[j] == summands[i]:
            j += 1
        count = j - i
        terms.append(_token(summands[i]) if count == 1 else f"{count}*{_token(summands[i])}")
        i = j
    return rng.choice((" # ", "#", " #")).join(terms)


def _request(spec: dict, argv: list[str], json_mode: bool, cap_s: float) -> dict:
    code, expected = oracle.expect(spec)
    if json_mode:
        argv = argv + ["--json"]
    return {"argv": argv, "code": code, "expected": expected, "json": json_mode,
            "summands": spec.get("summands", ()), "cap_s": cap_s}


# ------------------------------------------------------------ descriptors


_E8_EDGES = ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))


def _block_data(summands):
    """Block-diagonal (form, cup1, c1, b1) of a canonical connected sum,
    built from the textbook bases: K3 = 2E8(-1) + 3H with c1 = 0, and for
    a surface product the classes of the two factors followed by the
    mixed classes u x v."""
    blocks, cups, c1, b1 = [], [], [], 0
    for s in summands:
        if s[0] == "K3":
            q = [[0] * 22 for _ in range(22)]
            for e in (0, 8):
                for i in range(8):
                    q[e + i][e + i] = -2
                for i, j in _E8_EDGES:
                    q[e + i][e + j] = q[e + j][e + i] = 1
            for t in range(16, 22, 2):
                q[t][t + 1] = q[t + 1][t] = 1
            blocks.append(q)
            c1 += [0] * 22
            continue
        _, g, h = s
        n1, n2 = 2 * g, 2 * h
        rank = 2 + n1 * n2
        q = [[0] * rank for _ in range(rank)]
        q[0][1] = q[1][0] = 1
        for i in range(n1):
            for j in range(n2):
                sign = (1 if i % 2 == 0 else -1) * (1 if j % 2 == 0 else -1)
                q[2 + i * n2 + j][2 + (i ^ 1) * n2 + (j ^ 1)] = -sign
        blocks.append(q)
        offset = sum(len(b) for b in blocks[:-1])
        for t in range(g):
            cups.append((b1 + 2 * t, b1 + 2 * t + 1, offset + 0))
        for t in range(h):
            cups.append((b1 + n1 + 2 * t, b1 + n1 + 2 * t + 1, offset + 1))
        for i in range(n1):
            for j in range(n2):
                cups.append((b1 + i, b1 + n1 + j, offset + 2 + i * n2 + j))
        c1 += [2 * (1 - g), 2 * (1 - h)] + [0] * (n1 * n2)
        b1 += n1 + n2
    n = sum(len(b) for b in blocks)
    form = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            form[off + i][off:off + len(b)] = row
        off += len(b)
    cup_vectors = {}
    for i, j, idx in cups:
        v = [0] * n
        v[idx] = 1
        cup_vectors[(i, j)] = v
    return form, cup_vectors, c1, b1


def _connected(form) -> bool:
    n = len(form)
    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for j, x in enumerate(form[i]):
            if x and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def dense_descriptor(source, label: str, rng: random.Random) -> dict:
    """Descriptor of a form congruent to the block form of ``source`` by a
    random unimodular change of basis, mixed until it no longer splits
    into blocks.  Rank, determinant, signature, c1^2 and every cup
    pairing are unchanged."""
    form, cups, c1, b1 = _block_data(source)
    n = len(form)
    vectors = [c1] + list(cups.values())
    while not _connected(form):
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            a = rng.choice((-1, 1))
            # New basis vector b_i + a*b_j: row and column i gain a times j.
            row = [x + a * y for x, y in zip(form[i], form[j])]
            row[i] += a * (form[j][i] + a * form[j][j])
            if max(abs(x) for x in row) > 4:
                continue
            form[i] = row
            for k in range(n):
                form[k][i] = row[k]
            for v in vectors:
                v[j] -= a * v[i]
    return {
        "b1": b1,
        "form": form,
        "cup1": {f"{i + 1},{j + 1}": v for (i, j), v in sorted(cups.items()) if any(v)},
        "euler": 2 - 2 * b1 + n,
        "c1": c1,
        "label": label,
    }


# ----------------------------------------------------------------- queries
#
# The pool holds 6 manifolds of each kind below (84 in all, more than the
# 64 entries of the program's inertia cache).  A round visits every pool
# manifold once, in seeded order, and sends that manifold's commands as
# one group.  Ranks stay at or below 66.

POOL_PER_KIND = 6  # a multiple of every rank class size, so decks deal evenly


def _kinds():
    """kind -> (summand builder, command list).  A command is
    (name, json_mode, option tag)."""
    return {
        "pair44": (lambda r: [r(22), r(22)],
                   [("analyze", True, ""), ("star", False, ""), ("sigma0", True, ""),
                    ("genus", True, "min"), ("einstein", True, ""),
                    ("yamabe", False, ""), ("analyze", False, "typo"),
                    ("analyze", True, "explicit")]),
        "pair60": (lambda r: [r(38), r(22)],
                   [("analyze", False, ""), ("sigma0", False, ""),
                    ("genus", True, "candidate"), ("star", True, ""),
                    ("einstein", False, ""), ("analyze", True, "")]),
        "sp_pair": (lambda r: [r(14), r(14)],
                    [("analyze", True, ""), ("star", True, ""), ("einstein", False, ""),
                     ("scan", True, "")]),
        "triple66": (lambda r: [r(22), r(22), r(22)],
                     [("analyze", True, ""), ("sigma0", True, ""),
                      ("yamabe", False, ""), ("genus", False, "min"),
                      ("star", True, ""), ("einstein", True, "")]),
        "triple42": (lambda r: [r(14), r(6), r(22)],
                     [("analyze", False, ""), ("genus", True, "candidate"),
                      ("einstein", True, ""), ("star", True, "explicit")]),
        "quad40": (lambda r: [r(14), r(6), r(6), r(14)],
                   [("analyze", True, ""), ("sigma0", True, ""), ("genus", True, "min"),
                    ("star", False, "")]),
        "single38": (lambda r: [r(38)],
                     [("analyze", True, ""), ("star", False, ""), ("analyze", False, "")]),
        "blowup": (lambda r: [r(22)] + [("~CP2",)] * 10,
                   [("analyze", True, ""), ("star", True, "explicit"),
                    ("analyze", False, "")]),
        "mixed": (lambda r: [("CP2",), r(14), ("~CP2",), ("~CP2",), ("S1xS3",)],
                  [("analyze", False, ""), ("analyze", True, "explicit"),
                   ("star", True, "noncharacteristic")]),
        "dense": (lambda r: [("FILE", None, None, [r(14), r(6)])],
                  [("analyze", True, ""), ("star", True, ""), ("sigma0", False, "")]),
        "dense_sum": (lambda r: [("FILE", None, None, [r(22)]), r(6)],
                      [("analyze", False, ""), ("star", True, ""), ("star", False, "")]),
        "sp_trio": (lambda r: [r(14), r(6), r(14)],
                    [("analyze", True, ""), ("star", False, ""), ("einstein", True, ""),
                     ("yamabe", True, "")]),
        "pair38": (lambda r: [r(38), r(6)],
                   [("analyze", True, ""), ("genus", False, "candidate"),
                    ("sigma0", False, ""), ("scan", True, ""), ("einstein", True, "")]),
        "even": (lambda r: [r("even"), r(22)],
                 [("analyze", True, ""), ("star", True, ""), ("analyze", False, "")]),
    }


def _deck(seed: int, kind: str, position: int, rank) -> list:
    cards = RANK_CLASSES[rank] * (POOL_PER_KIND // len(RANK_CLASSES[rank]))
    _rng(seed, "deck", kind, position).shuffle(cards)
    return cards


def queries_pool(seed: int, tmpdir: str):
    """([(kind, summands)], {path: (source summands, label, rng)}): the
    pool with descriptor paths filled in, and how to write each dense
    descriptor it refers to."""
    pool, files = [], {}
    for kind, (build, _) in _kinds().items():
        for i in range(POOL_PER_KIND):
            rng = _rng(seed, "pool", kind, i)
            # The n-th generator of slot i is card i of deck n, which holds
            # every member of its rank class equally often.
            position = itertools.count()
            summands = build(lambda rank: _deck(seed, kind, next(position), rank)[i])
            out = []
            for s in summands:
                if s[0] == "FILE":
                    label = f"dense-{kind}-{i}"
                    path = os.path.join(tmpdir, f"{label}.json")
                    files[path] = (s[3], label, _rng(seed, "descriptor", kind, i))
                    s = ("FILE", path, label, s[3])
                out.append(s)
            rng.shuffle(out)
            pool.append((kind, out))
    return pool, files


def write_descriptors(seed: int, tmpdir: str, base: str = ".") -> None:
    """Write the pool's descriptors; ``tmpdir`` is relative to ``base``."""
    _, files = queries_pool(seed, tmpdir)
    for path, (source, label, rng) in files.items():
        with open(os.path.join(base, path), "w", encoding="utf-8") as fh:
            json.dump(dense_descriptor(source, label, rng), fh)


# Each turns a valid expression into one the parser must reject.
_TYPOS = (
    lambda e: e + " #",
    lambda e: "# " + e,
    lambda e: e.replace("(", "(,", 1) if "(" in e else "K4 # " + e,
    lambda e: "0*" + e,
)


def _query(cmd, json_mode, tag, summands, rng, cap_s):
    expr = expression(summands, rng)
    spec = {"command": cmd, "summands": summands}
    argv = [cmd, expr]
    if tag == "typo":
        argv[1] = rng.choice(_TYPOS)(expr)
        spec["syntax_error"] = True
    if tag in ("explicit", "noncharacteristic"):
        odd = [rng.choice((-1, 1, 3, -3)) for s in summands if s[0] in ("CP2", "~CP2")]
        coords, square = oracle.explicit_c1(summands, odd)
        canonical = not odd
        if tag == "noncharacteristic":
            coords[0] += 1
        spec["c1"] = {"square": square, "characteristic": tag == "explicit",
                      "canonical": canonical}
        argv.append("--c1=" + ",".join(str(x) for x in coords))
    if cmd == "genus":
        spec["self_int"] = rng.randrange(0, 24)
        spec["pairing"] = rng.randrange(-6, 7)
        argv += ["--self-int", str(spec["self_int"]), "--pairing", str(spec["pairing"])]
        if tag == "candidate":
            spec["genus"] = rng.randrange(1, 9)
            argv += ["--genus", str(spec["genus"])]
    if cmd in ("einstein", "yamabe"):
        other = [("~CP2",)] * rng.randrange(4, 13) + [("S1xS3",)] * rng.randrange(0, 3)
        rng.shuffle(other)
        spec["other"] = other
        flag = "--n2" if cmd == "einstein" else "--n1"
        argv += [flag, expression(other, rng)]
        if cmd == "yamabe":
            spec["nonneg_scalar"] = rng.random() < 0.8
            if spec["nonneg_scalar"]:
                argv.append("--nonneg-scalar")
    if cmd == "scan":
        products = [(s[1], s[2]) for s in summands]
        s = rng.randrange(0, 4)
        spec = {"command": "scan", "products": products, "s": s, "r_max": 16}
        argv = ["scan", "--G-from", expr, "--s", str(s), "--r-max", "16"]
    return _request(spec, argv, json_mode, cap_s)


def queries_round(seed: int, round_index: int, tmpdir: str) -> list[dict]:
    kinds = _kinds()
    pool, _ = queries_pool(seed, tmpdir)
    rng = _rng(seed, "queries", round_index)
    order = list(range(len(pool)))
    rng.shuffle(order)
    out = []
    for slot in order:
        kind, summands = pool[slot]
        commands = list(kinds[kind][1])
        head, rest = commands[0], commands[1:]
        rng.shuffle(rest)
        for cmd, json_mode, tag in [head] + rest:
            out.append(_query(cmd, json_mode, tag, summands, rng, CAP_S["queries"]))
    return out


# -------------------------------------------------------------------- scan
#
# (first product, second product, r_max).  The products fix the ranks of
# the fixed manifold, r_max fixes how many sums are assembled; the seed
# draws s in 0..3 and the order.

SCAN_SLOTS = (
    ((1, 1), (1, 3), 100), ((3, 1), (1, 3), 100), ((1, 1), (3, 3), 100),
    ((1, 5), (3, 1), 100), ((3, 3), (1, 9), 100), ((5, 3), (1, 1), 100),
    ((9, 1), (3, 3), 100), ((3, 5), (3, 3), 100),
    ((1, 1), (5, 1), 120), ((1, 3), (1, 3), 120),
    ((3, 1), (1, 3), 150), ((3, 3), (1, 1), 150), ((1, 9), (3, 1), 150),
    ((5, 1), (1, 5), 150), ((3, 3), (3, 1), 150),
    ((1, 1), (1, 1), 200), ((3, 1), (1, 3), 200), ((1, 3), (3, 3), 200),
    ((1, 5), (1, 1), 250), ((1, 3), (1, 1), 250), ((1, 1), (1, 1), 300),
)


def scan_round(seed: int, round_index: int, tmpdir: str) -> list[dict]:
    rng = _rng(seed, "scan", round_index)
    out = []
    for first, second, r_max in SCAN_SLOTS:
        products = [first, second]
        s = rng.randrange(0, 4)
        spec = {"command": "scan", "products": products, "s": s, "r_max": r_max}
        expr = expression([("SP", g, h) for g, h in products], rng)
        argv = ["scan", "--G-from", expr, "--s", str(s), "--r-max", str(r_max)]
        out.append(_request(spec, argv, rng.random() < 0.75, CAP_S["scan"]))
    rng.shuffle(out)
    return out


# ------------------------------------------------------------- rank_ladder
#
# (family, size): SP(g,g), n*K3, K3 # n*~CP2 and n*SP(3,3), ranks 102..460,
# in four cost groups of 7, 4, 4 and 1 rungs.  With three rounds the
# median falls inside the second group and the tail (11th-largest of 48)
# inside the third, never on the gap between two groups, where run-to-run
# noise would move it from one group's cost to the other's.

LADDER = (
    ("sp", 5), ("k3", 5), ("sp33", 3), ("blowup", 100), ("k3", 6), ("sp", 6), ("sp33", 4),
    ("sp", 7), ("k3", 9), ("blowup", 200), ("sp33", 6),
    ("sp", 8), ("k3", 12), ("sp33", 7), ("blowup", 240),
    ("blowup", 438),
)


def _split(rng, n: int) -> list[int]:
    if n < 4 or rng.random() < 0.5:
        return [n]
    cut = rng.randrange(1, n)
    return [cut, n - cut]


def rank_ladder_round(seed: int, round_index: int, tmpdir: str) -> list[dict]:
    rng = _rng(seed, "rank_ladder", round_index)
    out = []
    for family, size in LADDER:
        parts = _split(rng, size)
        if family == "sp":
            summands = [("SP", size, size)]
        elif family == "blowup":
            summands = [("~CP2",)] * parts[0] + [("K3",)] + [("~CP2",)] * sum(parts[1:])
        else:
            # n equal summands, written as one or two multiplicities.
            gen = "K3" if family == "k3" else "SP(3,3)"
            summands = [("K3",) if family == "k3" else ("SP", 3, 3)] * size
        if family in ("k3", "sp33"):
            expr = " # ".join(f"{p}*{gen}" if p > 1 else gen for p in parts)
        else:
            expr = expression(summands, rng)
        spec = {"command": "analyze", "summands": summands}
        out.append(_request(spec, ["analyze", expr], rng.random() < 0.75,
                            CAP_S["rank_ladder"]))
    rng.shuffle(out)
    return out


ROUNDS = {"queries": queries_round, "scan": scan_round, "rank_ladder": rank_ladder_round}


def warmup_requests() -> list[dict]:
    """One small request per command and output form, run before timing
    so that lazy imports and first-use set-up are not measured."""
    rng = _rng(0, "warmup")
    pair = [("K3",), ("SP", 1, 3)]
    out = []
    for cmd, tag in (("analyze", ""), ("star", ""), ("sigma0", ""), ("genus", "min"),
                     ("einstein", ""), ("yamabe", ""), ("analyze", "typo")):
        for json_mode in (True, False):
            out.append(_query(cmd, json_mode, tag, pair, rng, 10.0))
    for json_mode in (True, False):
        out.append(_query("scan", json_mode, "", [("SP", 1, 1), ("SP", 3, 1)], rng, 10.0))
    return out
