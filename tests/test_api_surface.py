"""The settable-value count of the public API: what it counts, and its ceiling."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "api_surface.py"
_spec = importlib.util.spec_from_file_location("api_surface", TOOL)
api_surface = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(api_surface)

CEILING = 72                # keyword defaults plus dataclass fields; no change should add one


def test_counts_defaults_and_fields_of_public_names_only(capsys):
    defaults, fields = api_surface.settable_values()
    assert "stmae.readout.PointTrackHead.__init__(num_frames=)" in defaults
    assert "stmae.mae.MaskedVideoModel.encode(blocks=)" in defaults
    assert "stmae.mae.ModelConfig.mask_ratio" in fields
    assert not any(d.startswith("stmae.mae.ModelConfig.__init__") for d in defaults)
    assert not any("._" in d.replace(".__init__(", "(") for d in defaults)     # private names
    assert len(defaults) == len(set(defaults)) and len(fields) == len(set(fields))
    assert len(defaults) + len(fields) <= CEILING
    api_surface.main([])
    total = len(defaults) + len(fields)
    assert capsys.readouterr().out == f"{len(defaults)} + {len(fields)} = {total}\n"
