"""The closed-loop examples run, and print what they printed before they were
served through one-replica engine cells.

Each digest is the sha256 of the example's stdout, captured from the
stream-by-stream runner the examples used before; the engine path must
reproduce every printed number.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

STDOUT_DIGESTS = {
    "quickstart": "4cc8eb01ca9f3d1ba3a34f498ac478054e50530e3d8b53dab307223678a8604c",
    "autonomous_driving": "4dc22d9109884822b36edcfdcc56a64797799462306aaefe9548e90dfa34d6ac",
    "icu_triage": "16c13d9922dcddc2087ce85aebd410daa8c406858f4aea7ede325c3086e70672",
}


@pytest.mark.parametrize("name", sorted(STDOUT_DIGESTS))
def test_example_main_prints_its_pinned_output(name, capsys):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STDOUT_DIGESTS[name]
