"""Every pinned Algorithm 2 calibration is reproduced bit for bit.

``tests/data/calibration_golden.json`` holds, per configuration,
``sigma_max`` and every node's sigma as ``float.hex`` with its sorted
active-quilt members; ``scripts/calibration_golden.py`` is the one generator
that writes it and that this test runs.  A calibration change that moves
any sigma by one ulp, or picks another active quilt, fails here.
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "calibration_golden", REPO_ROOT / "scripts" / "calibration_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("calibration_golden", module)
    spec.loader.exec_module(module)
    return module


def test_every_pinned_calibration_is_bit_identical():
    golden = _load_generator()
    expected = golden.load()
    problems = golden.diff(expected, golden.generate())
    assert not problems, "\n".join(problems[:20])


def test_golden_file_is_the_generators_format():
    golden = _load_generator()
    expected = golden.load()
    assert golden.dumps(expected) == golden.GOLDEN_PATH.read_text()
    assert list(expected) == list(golden.configurations())
