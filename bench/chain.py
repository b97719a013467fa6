"""Seeded generator for the `chain` workload: transitivity chains over intty.

Each generated statement has variables x0..xn and n hypotheses, one per
link of the chain x0 - x1 - ... - xn.  A link is stated forwards
(`eq intty x(i-1) xi`) or backwards (`eq intty xi x(i-1)`); the hypotheses
appear in a seeded order.  The proof carries in-proof `symm` and `trans`
lemmas and composes the links left to right: a backwards link is turned
round with `symm`, and each further link is added with `trans`.

Half the statements are *reject* cases.  They quantify one more variable
`z`, which no hypothesis mentions, and conclude `eq intty x0 z` (or
`eq intty z xn`).  That statement is false whenever z differs from the
other end of the chain, so no sound checker accepts any proof of it; the
checker must exhaust its search and exit 1.  The verdict of every case is
therefore known without running the checker, and is written beside each
input as `<name>.expect.json`.
"""

from __future__ import annotations

import json
import os
import random

# (chain length, reject side) per case: each length has an accept case
# and a reject case, z sits at either end equally often, and every seed
# runs the same mix.  At these lengths every job's clause store is at
# least 60 clauses deep; near n = 30 the checker's recursion depth runs
# out.
CASES = tuple(
    (n, kind) for n, side in ((18, "left"), (20, "right"), (22, "left"), (24, "right"))
    for kind in ("accept", side)
)

_LEMMAS_HEAD = r"""(lemma_pf
  (Symm\ pi T\ pi A\ pi B\ pi P\
    proves (Symm P) (eq T A B) <<==
        hastype A T, hastype B T, proves P (eq T B A))
  (P\ elam T\ elam A\ elam B\
    (extract (eq T A B) (congr T B A (eq T A) P refl)))
  (symm\
(lemma_pf
  (Trans\ pi T\ pi A\ pi B\ pi C\ pi Q1\ pi Q2\
    proves (Trans C Q1 Q2) (eq T A B) <<==
        hastype A T, hastype B T, hastype C T,
        proves Q1 (eq T A C), proves Q2 (eq T C B))
  (C\Q1\Q2\ elam A\ elam B\ elam T\
    (extract (eq T A B) (congr T B C (eq T A) (symm Q2) Q1)))
  (trans\
"""


def chain_statement(n, backwards, order, reject=None):
    """Source text of one chain statement.

    `backwards[i]` says whether link i+1 is stated backwards; `order` is
    the order in which the hypotheses appear; `reject` is None for an
    accept case, or "left"/"right" for the end of the conclusion that
    names the unconstrained variable z.
    """
    xs = [f"x{i}" for i in range(n + 1)]
    hyps, links = {}, {}
    for i in range(1, n + 1):
        a, b = xs[i - 1], xs[i]
        if backwards[i - 1]:
            hyps[i] = f"eq intty {b} {a}"
            links[i] = f"(symm q{i})"
        else:
            hyps[i] = f"eq intty {a} {b}"
            links[i] = f"q{i}"
    proof = links[1]
    for i in range(2, n + 1):
        proof = f"(trans {xs[i - 1]} {proof} {links[i]})"
    binders = list(xs) + (["z"] if reject else [])
    if reject == "left":
        concl = f"eq intty z {xs[n]}"
    elif reject == "right":
        concl = "eq intty x0 z"
    else:
        concl = f"eq intty x0 {xs[n]}"
    intro = "".join(f"forall_i {v}\\ " for v in binders)
    intro += "".join(f"(imp_i q{i}\\ " for i in order)
    body = intro + proof + ")" * len(order)
    formula = "".join(f"forall intty {v}\\ " for v in binders)
    formula += "(" + " imp ".join(f"({hyps[i]})" for i in order) + f" imp {concl})"
    return f"proves\n{_LEMMAS_HEAD}  ({body})))))\n({formula}).\n"


def generate(seed, out_dir):
    """Write the seed's chain cases into `out_dir`; return their manifest.

    Each manifest entry is a dict with the input path, the expected exit
    code, the reason that code is known, and n.  The seed picks which
    half of the links are stated backwards and the hypothesis order; the
    same seed writes the same files.
    """
    rng = random.Random(f"chain-{seed}")
    os.makedirs(out_dir, exist_ok=True)
    cases = []
    for n, kind in CASES:
        backwards = [k < n // 2 for k in range(n)]  # half the links
        rng.shuffle(backwards)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        reject = None if kind == "accept" else kind
        text = chain_statement(n, backwards, order, reject)
        if reject:
            end = f"x{n}" if reject == "left" else "x0"
            expect, reason = 1, (
                f"the conclusion relates z to {end}, but no hypothesis "
                "mentions z; the statement is false when z differs from "
                f"{end}, so no sound proof of it exists"
            )
        else:
            expect, reason = 0, (
                f"the {n} hypotheses link x0 to x{n}; the proof composes "
                "them with trans, turning backwards links round with "
                "symm, and both lemmas are proved in the proof"
            )
        stem = os.path.join(out_dir, f"chain_n{n}_{kind}")
        with open(stem + ".hol", "w", encoding="utf-8") as f:
            f.write(text)
        with open(stem + ".expect.json", "w", encoding="utf-8") as f:
            json.dump({"exit": expect, "reason": reason, "n": n}, f, indent=1)
            f.write("\n")
        cases.append(
            {"path": stem + ".hol", "exit": expect, "reason": reason, "n": n}
        )
    return cases
