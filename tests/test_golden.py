"""Bit-identity of `resrings resolve`: the sha256 of its stdout (the
resolution and its validation report) on fixed inputs.

A change to any of these hashes is a change in the program's output; the
hashes were taken before syzygy systems were assembled as sparse integer
rows, and must not move under changes meant to be speed-ups.
"""

import hashlib
import json
import random
from contextlib import redirect_stdout
from io import StringIO

import pytest

from resrings.cli import main
from resrings.configs import random_points_config

GOLDEN = {
    "standard 3": "615a6bfa7421b38a3a4e092185a23ef7e0791ef36f3c2f4a1261a9434f0bec36",
    "standard 4": "3d0cfc3b40e0be01dd355a581341664711d126089a7b3ec35fd02aeae5fd0ee5",
    "standard 5": "af57f9a19ecafb99e96070d3ecc1035aa51ca2c6fedf45b46015a2f977cc0b6e",
    "standard 6": "10e06cf1bf3dc6c5944b02d02566f6f34bb74208b43a988b61128c505e6628e1",
    "standard 7": "14be1c594537b3a9aa278c56c385fa0a03d451fa18182e5262119e06d9bb1285",
    "standard 8": "1d1806a8af55bf6ebd248af37cf545474efc672863fea0cd4b0412d7e2aa6de4",
    "etale t^4-t-1": "cb3cd2898197a4be282efdbc8ac3ece73af34999d1f7d0a2701a8ccfef3f776a",
    "etale t^5-t-1": "466f7145e560c6ea11870178f333231cfb8fd915f4676e7910ebe5a73bfe3d53",
    "etale t^6-t-1": "601c2981021f627c5ea2e45e875ed01deb1051cc57e3bb4625cf6b6a67a59c17",
    # random_points_config(n, random.Random(seed), bound)
    "points 5 5 1000000": "c53c70de42b4e8029ae2291359d188ae4ca214e9b551cca3eb57e96aec42509d",
    "points 6 6 1000": "66c971ccc47bc7e2851354a83fa3bdbcf94a14bbe5d16c89a5fed13b5e3554fa",
    "points 7 7 1": "518ad7d61cbde5437825ed69a4943c455fc90e0f3da04a151f3855cadd5fd158",
}


def _argv(case, tmp_path):
    kind, *args = case.split()
    if kind == "standard":
        return ["resolve", "--standard", args[0]]
    if kind == "etale":
        return ["resolve", "--etale", args[0]]
    n, seed, bound = (int(a) for a in args)
    path = tmp_path / "points.json"
    path.write_text(json.dumps(random_points_config(n, random.Random(seed), bound=bound).to_json()))
    return ["resolve", str(path)]


@pytest.mark.parametrize("case", list(GOLDEN))
def test_resolve_output_is_bit_identical(case, tmp_path):
    out = StringIO()
    with redirect_stdout(out):
        assert main(_argv(case, tmp_path)) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == GOLDEN[case]
