"""scripts/slot_threshold.py at n = 50: both paths give the same bits."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_small_run_reports_same_bits(capsys):
    spec = importlib.util.spec_from_file_location(
        "slot_threshold", os.path.join(ROOT, "scripts", "slot_threshold.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--n", "50", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == 9 and not any("BITS DIFFER" in line for line in lines)
    by_name = {line[:22].strip(): line for line in lines}
    assert by_name["dense 0% zero"].endswith(" kept") and "not kept" not in by_name["dense 0% zero"]
    assert by_name["stencil, 0% long"].endswith("not kept")     # padding about 2
