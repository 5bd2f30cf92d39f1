"""Seeded generator of the benchmark corpora.

Every workload is a fixed list of strata (a program family at one
parameter setting).  The seed renames symbols and variables (the bundled
programs are used verbatim) and orders the queries of a pass.  It leaves clause order alone: clause order decides
how soon a proof turns up, so shuffling it would make the work per query
depend on the seed.  Two seeds therefore give different texts with the
same amount of work, and the same seed gives byte-identical texts.

Each generated case records its truth by construction -- diverging (with
a ground query that runs forever) or terminating (with the argument that
strictly decreases) -- and why its family is in the workload.  The prover
sees only the program text.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ROOT / "programs"

DIVERGING = "diverging"
TERMINATING = "terminating"


@dataclass(frozen=True)
class Case:
    name: str  # file stem, unique within a workload
    family: str
    text: str  # what the prover sees
    truth: str  # DIVERGING | TERMINATING
    argument: str  # the diverging family, or the decreasing argument
    samples: tuple[str, ...]  # ground queries: run forever, resp. terminate
    why: str  # why the family is in the workload


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why it is in the benchmark."""

    name: str
    max_iter: int  # rounds per query; the only budget that binds
    tail_pct: float  # fixed tail percentile, so commits compare alike
    strata: tuple  # functions (rng) -> list[Case]


# --- text helpers ----------------------------------------------------------


def s(k: int, t: str) -> str:
    for _ in range(k):
        t = f"s({t})"
    return t


GT = ["gt(s(X), 0).", "gt(s(X), s(Y)) :- gt(X, Y)."]
LT = ["lt(0, s(Y)).", "lt(s(X), s(Y)) :- lt(X, Y)."]
LE = ["le(0, X).", "le(s(X), s(Y)) :- le(X, Y)."]
ADD = ["add(X, 0, X).", "add(X, s(Y), s(Z)) :- add(X, Y, Z)."]
MUL = ["mul(X, 0, 0).", "mul(X, s(Y), Z) :- mul(X, Y, W), add(W, X, Z)."]
ISNAT = ["isNat(0).", "isNat(s(X)) :- isNat(X)."]
ISLIST = ["isList(nil).", "isList(cons(X, Y)) :- isList(Y)."]
APP = ["app(nil, L, L).", "app(cons(X, L1), L2, cons(X, L3)) :- app(L1, L2, L3)."]

_TOKEN = re.compile(r"[a-z][A-Za-z0-9_]*|[0-9]+|[A-Z_][A-Za-z0-9_]*|\S")


def disguise(query: str, clauses: list[str], samples: tuple[str, ...], rng: random.Random):
    """Rename symbols and variables from `rng`.

    Returns the program text and the samples under the same renaming.
    `query` is `pred/arity`.
    """
    names: dict[str, str] = {}
    used: set[str] = set()

    def fresh(base: str) -> str:
        while True:
            cand = f"{base}{rng.randrange(100)}"
            if cand not in used:
                used.add(cand)
                return cand

    def rename(text: str, varmap: dict[str, str]) -> str:
        out = []
        for tok in _TOKEN.findall(text):
            if tok[0].isupper() or tok[0] == "_":
                if tok not in varmap:
                    varmap[tok] = fresh(rng.choice("ABCDEFGHKLMNPQRTUVW"))
                out.append(varmap[tok])
            elif tok[0].isalnum():
                if tok not in names:
                    names[tok] = fresh("z" if tok.isdigit() else tok)
                out.append(names[tok])
            else:
                out.append(tok)
        return _spaced("".join(out))

    varmap: dict[str, str] = {}
    body = [rename(c, varmap) for c in clauses]
    pred, arity = query.split("/")
    head = f"%query: {names[pred]}({','.join('i' * int(arity))})."
    renamed_samples = tuple(rename(q, {}) for q in samples)
    return "\n".join([head, *body]) + "\n", renamed_samples


def _spaced(text: str) -> str:
    return text.replace(",", ", ").replace(":-", " :- ")


def case(rng, name, family, query, clauses, truth, argument, samples, why) -> Case:
    text, samples = disguise(query, clauses, tuple(samples), rng)
    return Case(name, family, text, truth, argument, samples, why)


# --- proven-corpus ---------------------------------------------------------

_BUNDLED_PROVEN = {
    "while-gt-add": ("while(s(s(0)),s(0))", "x > y > 0 survives x += y, y += 1"),
    "while-gt-step2": ("while(s(s(s(0))),s(s(0)))", "x > y >= 2 survives x += y, y += 2"),
    "while-lt": ("while(0,s(0))", "x < y survives y += 1"),
    "count-up": ("h(s(0),0)", "gt(x, y) survives adding one to both"),
    "isnat-loop": ("f(0)", "isNat(x) holds for every numeral x"),
    "and-isnat": ("f(0,0)", "isNat holds for both growing counters"),
    "grow": ("f(0)", "every call makes a larger one"),
}


def bundled(rng) -> list[Case]:
    why = "bundled example: the common user case, a first-round proof"
    return [
        Case(stem, "bundled", (BUNDLED / f"{stem}.pl").read_text(encoding="utf-8"),
             DIVERGING, arg, (sample,), why)
        for stem, (sample, arg) in _BUNDLED_PROVEN.items()
    ]


def while_gt_add(rng) -> list[Case]:
    out = []
    for k in (1, 2, 3, 4):
        loop = [f"while(X, Y) :- gt(X, Y), add(X, Y, Z), while(Z, {s(k, 'Y')})."]
        exit_ = ["while(X, Y) :- le(X, Y).", *LE] if k % 2 == 0 else []
        out.append(case(
            rng, f"while-gt-add-k{k}", "while-gt-add", "while/2", loop + GT + ADD + exit_,
            DIVERGING, f"x > y >= {k} survives x += y, y += {k}",
            [f"while({s(k + 1, '0')},{s(k, '0')})"],
            "stride k changes the pumping exponents, not the work per query"))
    return out


def while_lt(rng) -> list[Case]:
    return [
        case(rng, f"while-lt-k{k}", "while-lt", "while/2",
             [f"while(X, Y) :- lt(X, Y), while(X, {s(k, 'Y')})."] + LT,
             DIVERGING, f"x < y survives y += {k}", ["while(0,s(0))"],
             "a guard that can never flip back; one seed pair proves it")
        for k in (1, 2, 3)
    ]


def count_up(rng) -> list[Case]:
    return [
        case(rng, f"count-up-k{k}", "count-up", "h/2",
             [f"h(X, Y) :- gt(X, Y), h({s(k, 'X')}, {s(k, 'Y')})."] + GT,
             DIVERGING, f"gt(x, y) survives adding {k} to both", ["h(s(0),0)"],
             "both counters grow together; the gt check lengthens each round")
        for k in (1, 2, 3)
    ]


def isnat_m(rng) -> list[Case]:
    return [
        case(rng, f"isnat-m{m}", "isnat-m", "f/1",
             ["f(X) :- " + "isNat(X), " * m + "f(s(X))."] + ISNAT,
             DIVERGING, f"isNat(x) holds {m} times for every numeral x", ["f(0)"],
             "m guard atoms: more body prefixes per round, same proof")
        for m in (2, 3, 4)
    ]


def and_isnat(rng) -> list[Case]:
    out = []
    for j in (3, 4, 5):
        xs = [f"X{i}" for i in range(1, j + 1)]
        guard = "".join(f"isNat({x}), " for x in xs)
        out.append(case(
            rng, f"and-isnat-j{j}", "and-isnat", f"f/{j}",
            [f"f({', '.join(xs)}) :- {guard}f({', '.join(s(1, x) for x in xs)})."] + ISNAT,
            DIVERGING, f"isNat holds for all {j} growing counters",
            [f"f({','.join('0' * j)})"],
            "j counters: wider power terms for power_form and detection"))
    return out


_MULTI_GUARD = {
    "gt-gt-add": "while(X, Y) :- gt(X, Y), gt(X, Y), add(X, Y, Z), while(Z, s(Y)).",
    "gt-add-add": "while(X, Y) :- gt(X, Y), add(X, Y, Z), add(Z, Y, W), while(W, s(Y)).",
    "gt-add-le": "while(X, Y) :- gt(X, Y), add(X, Y, Z), le(Y, Z), while(Z, s(Y)).",
    "add-gt": "while(X, Y) :- add(X, Y, Z), gt(X, Y), while(Z, s(Y)).",
}


def multi_guard(rng) -> list[Case]:
    return [
        case(rng, f"guard-{tag}", "multi-guard", "while/2", [loop] + GT + ADD + LE,
             DIVERGING, "x > y > 0 survives x += y, y += 1 under every extra guard",
             ["while(s(s(0)),s(0))"],
             "multi-guard gt/add loops: longer bodies, still a first-round proof")
        for tag, loop in _MULTI_GUARD.items()
    ]


def chain(depths, why):
    def build(rng) -> list[Case]:
        out = []
        for d in depths:
            links = [f"p{i}(X) :- p{i + 1}(X)." for i in range(1, d)] + [f"p{d}(X) :- isNat(X)."]
            out.append(case(
                rng, f"chain-d{d}", "chain", "f/1",
                ["f(X) :- p1(X), f(s(X))."] + links + ISNAT,
                DIVERGING, f"p1(x) holds for every numeral x through {d} links",
                ["f(0)"], why))
        return out
    return build


# --- unknown-saturation ----------------------------------------------------


def shrink(rng) -> list[Case]:
    out = []
    for a in (1, 2):
        for k in (1, 2):
            xs = [f"X{i}" for i in range(1, a + 1)]
            out.append(case(
                rng, f"shrink-a{a}k{k}", "shrink", f"f/{a}",
                [f"f({', '.join(s(k, x) for x in xs)}) :- f({', '.join(xs)}).",
                 f"f({', '.join('0' * a)})."],
                TERMINATING, f"every argument loses {k} s-layers per call",
                [f"f({','.join([s(3 * k, '0')] * a)})", f"f({','.join([s(1, '0')] * a)})"],
                "terminating control: no pump, offset-shifted duplicates every round"))
    return out


def list_controls(rng) -> list[Case]:
    lst = "cons(a,cons(b,cons(c,nil)))"
    return [
        case(rng, "nrev", "list-control", "rev/2",
             ["rev(nil, nil).", "rev(cons(X, Xs), R) :- rev(Xs, R1), app(R1, cons(X, nil), R)."] + APP,
             TERMINATING, "rev recurses on a shorter list; app on its first list",
             [f"rev({lst},nil)", f"rev({lst},cons(c,cons(b,cons(a,nil))))"],
             "naive reverse: two-atom body, terminating control"),
        case(rng, "len", "list-control", "len/2",
             ["len(nil, 0).", "len(cons(X, L), s(N)) :- len(L, N)."],
             TERMINATING, "the list argument shrinks", [f"len({lst},s(s(s(0))))"],
             "list length: a seed family over a variable-carrying context"),
        case(rng, "app", "list-control", "app/3", APP,
             TERMINATING, "the first list shrinks", [f"app({lst},nil,nil)"],
             "append: three-argument seed families"),
    ]


def numeral_controls(rng) -> list[Case]:
    return [
        case(rng, "half", "numeral-control", "half/2",
             ["half(0, 0).", "half(s(0), 0).", "half(s(s(X)), s(Y)) :- half(X, Y)."],
             TERMINATING, "the first argument loses two s-layers per call",
             ["half(s(s(s(s(s(0))))),s(s(0)))"],
             "two base facts: two seed families per recursion"),
        case(rng, "shift", "numeral-control", "f/2",
             ["f(s(X), Y) :- f(X, s(Y)).", "f(0, Y)."],
             TERMINATING, "the first argument shrinks while the second grows",
             ["f(s(s(s(0))),0)"],
             "shrinking and growing position in one seed family"),
        case(rng, "sub", "numeral-control", "sub/3",
             ["sub(X, 0, X).", "sub(s(X), s(Y), Z) :- sub(X, Y, Z)."],
             TERMINATING, "the second argument shrinks",
             ["sub(s(s(s(0))),s(0),s(s(0)))"],
             "two shrinking positions of three"),
        case(rng, "even", "numeral-control", "ev/1",
             ["ev(0).", "ev(s(s(X))) :- ev(X)."],
             TERMINATING, "the argument loses two s-layers per call",
             ["ev(s(s(s(s(0)))))", "ev(s(s(s(0))))"],
             "a stride-two tower in a single seed family"),
    ]


def islist_grow(rng) -> list[Case]:
    return [
        case(rng, f"islist-grow-{tag}", "islist-grow", "while/2",
             [f"while(X, Y) :- isList(Y), while(X, cons({elem}, Y))."] + ISLIST,
             DIVERGING, "isList(y) holds for every proper list y", ["while(0,nil)"],
             "diverging, but the needed family iterates a context with a variable")
        for tag, elem in (("x", "X"), ("sx", "s(X)"))
    ]


# --- clash-heavy -----------------------------------------------------------

_CLASH_LOOPS = {
    "gt-add-gtx": (["while(X, Y) :- gt(X, Y), add(X, Y, Z), gt(Z, X), while(Z, s(Y))."],
                   "while(s(s(0)),s(0))"),
    "le-add-le": (["while(X, Y) :- le(s(Y), X), add(X, Y, Z), le(s(Y), Z), while(Z, s(Y))."],
                  "while(s(s(0)),s(0))"),
    "add-gt": (["while(X, Y) :- add(X, Y, Z), gt(Z, Y), while(Z, s(Y))."],
               "while(s(0),0)"),
    "add-le": (["while(X, Y) :- add(X, Y, Z), le(s(Y), Z), while(Z, s(Y))."],
               "while(s(0),0)"),
    "gt-add-mul": (["while(X, Y) :- gt(X, Y), add(X, Y, Z), mul(X, Y, W), while(Z, s(Y))."],
                   "while(s(s(0)),s(0))"),
    "gt-mul": (["while(X, Y) :- gt(X, Y), mul(X, Y, Z), while(Z, s(Y))."],
               "while(s(s(s(0))),s(s(0)))"),
    "le-add": (["while(X, Y) :- le(s(X), Y), add(X, Y, Z), while(X, Z)."],
               "while(0,s(0))"),
    # Eleven rules: three while clauses over the whole gt/le/add/mul library.
    "mul-le-add": (["while(X, Y) :- gt(X, Y), mul(X, Y, Z), while(Z, s(Y)).",
                    "while(X, Y) :- le(X, Y), add(X, Y, Z), while(Z, s(s(Y))).",
                    "while(X, Y) :- le(X, Y)."],
                   "while(s(s(s(0))),s(s(0)))"),
}

_CLASH_PROVEN = {
    "gt-add": (["while(X, Y) :- gt(X, Y), add(X, Y, Z), while(Z, s(Y))."],
               "while(s(s(0)),s(0))"),
    "gt-gt-add": (["while(X, Y) :- gt(X, Y), gt(X, Y), add(X, Y, Z), while(Z, s(Y))."],
                  "while(s(s(0)),s(0))"),
    "add-gt-exit": (["while(X, Y) :- add(X, Y, Z), gt(X, Y), while(Z, s(Y)).",
                     "while(X, Y) :- le(X, Y)."],
                    "while(s(s(0)),s(0))"),
    "le-add-s": (["while(X, Y) :- le(Y, X), add(X, Y, Z), while(s(Z), s(Y))."],
                 "while(0,0)"),
}

_CLASH_TERMINATING = {
    "gt-step": ["while(X, Y) :- gt(X, Y), add(Y, Y, Z), while(X, s(Y))."],
    "gt-mul-step": ["while(X, Y) :- gt(X, Y), mul(Y, Y, Z), while(X, s(Y))."],
    "le-step": ["while(X, Y) :- le(s(Y), X), while(X, s(Y))."],
}


def clash_loops(rng) -> list[Case]:
    lib = GT + LE + ADD + MUL
    out = [
        case(rng, f"clash-{tag}", "clash-loop", "while/2", loop + lib,
             DIVERGING, "the guard survives the update from the sample on",
             [sample], "guards and a mul library make most unifier calls clash")
        for tag, (loop, sample) in _CLASH_LOOPS.items()
    ]
    out += [
        case(rng, f"clash-{tag}", "clash-proven", "while/2", loop + lib,
             DIVERGING, "the guard survives the update from the sample on",
             [sample],
             "a gt/add loop in the same library: proven after clashing candidates")
        for tag, (loop, sample) in _CLASH_PROVEN.items()
    ]
    out += [
        case(rng, f"clash-{tag}", "clash-control", "while/2", loop + lib,
             TERMINATING, "x - y shrinks by one per call while gt(x, y) holds",
             ["while(s(s(s(0))),0)", "while(s(s(0)),s(0))"],
             "terminating control with the same guards; a Proven here is unsound")
        for tag, loop in _CLASH_TERMINATING.items()
    ]
    return out


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "proven-corpus", 10, 99.0,
            (bundled, while_gt_add, while_lt, count_up, isnat_m, and_isnat, multi_guard,
             chain((1, 2), "a guard behind d links: the proof needs d + 1 rounds")),
        ),
        Workload(
            "unknown-saturation", 8, 90.0,
            (shrink, list_controls, numeral_controls, islist_grow,
             chain((3, 4), "late proof after several saturation rounds; keeps decided_share honest")),
        ),
        Workload(
            "clash-heavy", 3, 90.0,
            (clash_loops,),
        ),
    )
}


def generate(workload: str, seed: int) -> list[Case]:
    """The workload's cases for this seed, in the order a pass runs them."""
    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    cases = [c for build in wl.strata for c in build(rng)]
    names = [c.name for c in cases]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate case names in {workload}")
    rng.shuffle(cases)
    return cases


def write_corpus(cases: list[Case], out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    for old in out.glob("*.pl"):
        old.unlink()
    paths = []
    for c in cases:
        p = out / f"{c.name}.pl"
        p.write_text(c.text, encoding="utf-8")
        paths.append(p)
    return paths
