"""Set-up probe: import homlab.cli, then validate and parse one spec file.

``run.py`` launches this in a fresh interpreter and times the whole process,
interpreter start and exit included; that is ``setup_s``.

    python3 perfbench/setup_probe.py SPEC.json
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import homlab.cli  # noqa: E402,F401  (the import is what is measured)
from homlab.experiment_spec import parse_spec, validate_document  # noqa: E402

text = Path(sys.argv[1]).read_text(encoding="utf-8")
violations = validate_document(text)
if violations:
    sys.exit("\n".join(str(v) for v in violations))
parse_spec(text)
