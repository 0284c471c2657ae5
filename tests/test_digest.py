import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "digest.py"

# One sha256 per output component of the engine on 3,200 seeded formulas
# (see tools/digest.py).  They do not depend on PYTHONHASHSEED.  A change
# that alters one of these outputs on purpose updates its line here and
# names every formula whose record differs.
EXPECTED = {
    "verdicts": "703d42725b76e015f0f2ae884e921b776f01eb10923bd61bc3961005adbe197b",
    "nf": "ffff9c4c7d98bf9b66b18b42dbb0db450b101a19a639072c47ec449e79c7fcea",
    "rewrites": "88d2b227a5adbc1ea6bf907dd74739041224a04c1aa6233ad97c30495ae30958",
    "classes": "22a400f4cf4a3087901475857fa035a376d82202222e4012da35c65357ee3c8d",
    "clauses": "6bad6eb0cda274fec56d2b704857b70132a18c18c75f263d0718e5ef08559b5f",
    "search": "b72ea0567900b088d61f718272cbf561c219a51788e27d7bafab748abe52f1e0",
}


def test_output_digest_is_unchanged():
    done = subprocess.run(
        [sys.executable, str(DIGEST)], capture_output=True, text=True, timeout=300, check=True
    )
    printed = dict(line.split() for line in done.stdout.splitlines())
    assert printed == EXPECTED


def _digest_module():
    import importlib.util

    spec = importlib.util.spec_from_file_location("digest", DIGEST)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_records_name_each_formula_and_component(monkeypatch, capsys):
    digest = _digest_module()
    monkeypatch.setattr(digest, "PER_FAMILY", 2)
    monkeypatch.setattr(sys, "argv", ["digest.py", "--records"])
    digest.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * len(digest.FAMILIES) * len(EXPECTED)
    assert [line.split(" ", 2)[:2] for line in lines[: len(EXPECTED)]] == [["100000", name] for name in EXPECTED]


def test_plain_flags_agree_with_simplify_on_every_digest_subformula():
    # A node is plain iff it holds no V and simplifying it returns it
    # unchanged.  The reference simplifies with transform and fold, not
    # with simplify, which trusts the flag; what it returns with no V
    # left is plain too.
    from onlyknow.corpus import generate_random
    from onlyknow.formula import Val, fold, transform, walk

    digest = _digest_module()
    seen = set()
    for family, (profile, agents, size) in enumerate(digest.FAMILIES):
        for k in range(digest.PER_FAMILY):
            seed = 100000 * (family + 1) + k
            seen.update(walk(generate_random(seed, profile, max_modal_depth=3, n_atoms=3, n_agents=agents, size=size)))
    plain = 0
    for g in seen:
        folded = transform(g, lambda h, rebuilt: fold(rebuilt))
        v_free = not any(type(h) is Val for h in walk(g))
        assert g.plain == (folded is g and v_free), g
        assert folded.plain == (not any(type(h) is Val for h in walk(folded))), g
        plain += g.plain
    assert plain > 3000 and len(seen) - plain > 8000  # 3,526 of 12,081 are plain
