"""Fixed output digest of the engine on 3,200 seeded random formulas.

Usage: python tools/digest.py [--records]

Draws 640 formulas from each of five generate_random families (all at
modal depth 3 over 3 atoms; formula k of family j has seed
100000*(j+1)+k) and prints one sha256 per component:

  verdicts  consistent and valid
  nf        the first 50 to_normal_form disjuncts
  rewrites  simplify(f), simplify(eliminate_val(f)), substitute_atom, assign
  classes   is_i_objective and is_i_subjective for agents 1 and 2
  clauses   decision.to_clauses(normalize(...)) variable and clause counts
  search    decision.to_clauses(...) variable and clause counts, with L/N whole

With --records it prints, instead of the hashes, every formula's
record, one line per component: the seed, the component's name and the
line the hash takes in.  Diffing the records of two versions names the
formulas whose outputs differ.

Two versions of the engine that print the same digests agree on every
one of these outputs.  The V-free inputs of nf, assign, normalize and
the search line are simplify(eliminate_val(f)); the search line counts
what the search clausifies at level 0 in consistent mode, before it
adds the dependency variables of its modal atoms.  The rewrites line
changed on purpose when assign began to fold each node it rebuilds: it
now equals what the earlier engine printed for simplify(assign(g, ENV)).
The nf and clauses lines changed on purpose when normalize began to
expand each modality over its agent's own modal atoms instead of
distributing it over a clause form of the argument: both are outputs of
normalize, and an objective argument is now kept as written.  The nf
line changed on purpose again when the stream began to drop a disjunct
in which M_i false meets a negated M_i literal, which it contradicts:
26 of the 3,200 records list fewer disjuncts.  The clauses and search
lines changed on purpose when to_clauses began to read the clauses off
the formula by polarity, with one definition per <-> operand that is no
literal: 197 clauses and 144 search records differ, each of a formula
with <->, except seed 400343, p | (p1 -> ~p1) -> L1 p, which gets one
clause more because the negation normal form had folded p1 -> ~p1.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from onlyknow import simplify  # noqa: E402
from onlyknow.corpus import generate_random  # noqa: E402
from onlyknow.decision import Decider, to_clauses  # noqa: E402
from onlyknow.formula import Atom, L, Not, to_text  # noqa: E402
from onlyknow.fragments import assign, is_i_objective, is_i_subjective, substitute_atom  # noqa: E402
from onlyknow.normal_form import normalize, to_normal_form  # noqa: E402

FAMILIES = (  # (profile, agents, size)
    ("basic", 2, 20),
    ("full", 2, 20),
    ("full", 1, 14),
    ("onl_minus", 2, 14),
    ("full", 2, 14),
)
PER_FAMILY = 640
ENV = {Atom("p"): True, Atom("p1"): False, L(1, Atom("p")): True}


def records(f) -> dict[str, str]:
    decider = Decider()
    g = simplify(decider.eliminate_val(f))
    variables, clauses = to_clauses(normalize(g))
    searched, search_clauses = to_clauses(g)
    return {
        "verdicts": f"{decider.consistent(f).status} {decider.valid(f).status}",
        "nf": " || ".join(to_text(d.to_formula()) for d in islice(to_normal_form(g), 50)),
        "rewrites": " ; ".join(
            to_text(h)
            for h in (simplify(f), g, substitute_atom(f, "p1", Not(Atom("q"))), assign(g, ENV))
        ),
        "classes": " ".join(str(c(f, i)) for i in (1, 2) for c in (is_i_objective, is_i_subjective)),
        "clauses": f"{len(variables)} {len(clauses)}",
        "search": f"{len(searched)} {len(search_clauses)}",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", action="store_true", help="print each formula's record instead of the hashes")
    show = parser.parse_args().records
    hashes = {}
    for family, (profile, agents, size) in enumerate(FAMILIES):
        for k in range(PER_FAMILY):
            seed = 100000 * (family + 1) + k
            f = generate_random(seed, profile, max_modal_depth=3, n_atoms=3, n_agents=agents, size=size)
            for name, line in records(f).items():
                if show:
                    print(seed, name, line)
                else:
                    hashes.setdefault(name, hashlib.sha256()).update(f"{line}\n".encode())
    for name, h in hashes.items():
        print(f"{name:9} {h.hexdigest()}")


if __name__ == "__main__":
    main()
