"""The package's top level: the names the README's library quick start
imports, and no more modules than those names need."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import bipartite_ab

ROOT = Path(__file__).resolve().parents[1]


def test_top_level_exports_the_readme_quick_start_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^from bipartite_ab import \(([^)]*)\)", readme, re.MULTILINE)
    names = [name.strip() for name in block.split(",") if name.strip()]
    assert names == bipartite_ab.__all__
    assert all(hasattr(bipartite_ab, name) for name in names)


def test_import_loads_no_simulator_cli_or_report():
    code = ("import json, sys, bipartite_ab; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('bipartite_ab'))))")
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True,
    )
    loaded = json.loads(done.stdout)
    assert "bipartite_ab.ingest" in loaded
    for module in ("simulator", "cli", "report"):
        assert f"bipartite_ab.{module}" not in loaded
