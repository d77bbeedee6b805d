"""The benchmark tracer still finds every name it hooks.

bench/tracer.py lists a hook whose targets are all gone as absent and
drops its metrics instead of failing, so a refactor that renames a hooked
function would silently thin the benchmark.  This runs the tracer on a
small simulated scene and requires every hook to be present.  The
annotate.* metrics count calls of cli.annotate_frame, so annotate must
still call it once per frame.
"""

import json
import subprocess
import sys
from pathlib import Path

from test_cli import BASE_CONFIG, simulate, write_config

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_traced_commands_have_no_absent_hook(tmp_path):
    config = write_config(tmp_path)
    simulate(tmp_path, config)
    counts = {}
    for command, extra in (("build-map", []), ("annotate", []),
                           ("evaluate", ["--gt", str(tmp_path / "sim" / "gt_labels")])):
        spans = tmp_path / f"{command}.json"
        proc = subprocess.run(
            [sys.executable, str(TRACER), "--spans", str(spans), "--n-objects", "3", "--",
             command, "--config", str(config), *extra],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(spans.read_text())
        assert record["rc"] == 0
        assert record["absent"] == []
        counts[command] = record["counts"]
    # Both stages project through the hooked name, once per frame.
    assert counts["build-map"]["geometry.project_box_calls"] > 0
    assert counts["annotate"]["geometry.project_box_calls"] > 0
    assert counts["annotate"].get("annotate.frames") == BASE_CONFIG["simulate"]["frames"]
    assert counts["annotate"].get("annotate.entries", 0) > 0
    # evaluate loads its stages lazily; it must still call the hooked names.
    assert counts["evaluate"]["metrics.pairs_matched"] > 0
    assert counts["evaluate"]["dataio.label_lines_parsed"] > 0
