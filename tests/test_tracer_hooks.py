"""The benchmark tracer still finds every name it hooks.

bench/tracer.py lists a hook whose targets are all gone as absent and
drops its metrics instead of failing, so a refactor that renames a hooked
function would silently thin the benchmark.  This runs the tracer on a
small simulated scene and requires every hook to be present, and every
span hook to be entered: a hook on a name that no command calls any more
is present but measures nothing.  The annotate.* metrics count calls of
cli.annotate_frame, so annotate must still call it once per frame;
association.track_updates counts calls of Track.add, so build-map must
still add each observation through it.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from test_cli import BASE_CONFIG, simulate, write_config

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# Present but never entered: build-map scores each frame with cost_matrix and lifts the
# whole sequence with lift_detections, so it calls neither association_cost nor
# lift_detection.  ROADMAP item 1 re-targets these hooks.
NOT_ENTERED = ("association.cost", "association.lift")


def _span_hooks() -> set[str]:
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {name for name, kind, *_ in tracer.HOOKS if kind == "span"}


def test_traced_commands_have_no_absent_hook(tmp_path):
    config = write_config(tmp_path)
    simulate(tmp_path, config)
    counts, entered = {}, set()
    for command, args in (
            ("build-map", ["--n-objects", "3", "--", "build-map", "--config", str(config)]),
            ("annotate", ["--", "annotate", "--config", str(config)]),
            ("evaluate", ["--", "evaluate", "--config", str(config),
                          "--gt", str(tmp_path / "sim" / "gt_labels")]),
            ("generate", ["--generate", str(config)])):
        spans = tmp_path / f"{command}.json"
        proc = subprocess.run([sys.executable, str(TRACER), "--spans", str(spans), *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        record = json.loads(spans.read_text())
        assert record["rc"] == 0
        assert record["absent"] == []
        counts[command] = record["counts"]
        entered.update(name for name, *_ in record["spans"])
    assert _span_hooks() - entered == set(NOT_ENTERED)
    # Every observation of every track entered through the hooked Track.add exactly once.
    assert counts["build-map"]["landmark.observations"] > 0
    assert counts["build-map"]["association.track_updates"] == counts["build-map"][
        "landmark.observations"]
    # Both stages project through the hooked name, once per frame.
    assert counts["build-map"]["geometry.project_box_calls"] > 0
    assert counts["annotate"]["geometry.project_box_calls"] > 0
    assert counts["annotate"].get("annotate.frames") == BASE_CONFIG["simulate"]["frames"]
    assert counts["annotate"].get("annotate.entries", 0) > 0
    # evaluate loads its stages lazily; it must still call the hooked names.
    assert counts["evaluate"]["metrics.pairs_matched"] > 0
    assert counts["evaluate"]["dataio.label_lines_parsed"] > 0
