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
    "clauses": "d37dc9d3f87bc6efcb1bd1b9f802d3d04660e450efb83dc64e5ee0322eb25ee1",
    "search": "4c5a1b6aa686bc5f76718ee2ffa4866b7f4561b1b90b5b0fac63362ed098c319",
}


def test_output_digest_is_unchanged():
    done = subprocess.run(
        [sys.executable, str(DIGEST)], capture_output=True, text=True, timeout=300, check=True
    )
    printed = dict(line.split() for line in done.stdout.splitlines())
    assert printed == EXPECTED
