"""The attention timing tool, run on this tree against itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "attention_timing.py"


def test_times_this_tree_against_itself():
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--repeats", "1"],
                          capture_output=True, text=True, check=True)
    report = json.loads(done.stdout)
    assert report["repeats"] == 1
    assert list(report["shapes"]) == ["latent", "visible", "probe_depth_head", "eval_depth_head",
                                      "eval_features"]
    for name, entry in report["shapes"].items():
        assert entry["bits_equal"], name
        for side in ("parent", "change"):
            assert set(entry[side]) == {"forward_ms", "forward_backward_ms", "backward_peak_mb"}
            assert all(value > 0 for value in entry[side].values()), (name, side)


def test_rejects_a_tree_without_numcore(tmp_path):
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(tmp_path)],
                          capture_output=True, text=True)
    assert done.returncode == 2 and "holds no src/stmae/numcore.py" in done.stderr
