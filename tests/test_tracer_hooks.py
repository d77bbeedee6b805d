"""The benchmark tracer still finds every name it hooks.

bench/tracer.py lists a hook whose targets are all gone as absent and
drops its metrics instead of failing, so a refactor that renames a hooked
function would silently thin the benchmark.  This runs the tracer on a
small simulated scene and requires every hook to be present.
"""

import json
import subprocess
import sys
from pathlib import Path

from test_cli import simulate, write_config

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_traced_build_map_and_annotate_have_no_absent_hook(tmp_path):
    config = write_config(tmp_path)
    simulate(tmp_path, config)
    for command in ("build-map", "annotate"):
        spans = tmp_path / f"{command}.json"
        proc = subprocess.run(
            [sys.executable, str(TRACER), "--spans", str(spans), "--n-objects", "3", "--",
             command, "--config", str(config)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(spans.read_text())
        assert record["rc"] == 0
        assert record["absent"] == []
        # Both stages project through the hooked name, once per frame.
        assert record["counts"]["geometry.project_box_calls"] > 0
