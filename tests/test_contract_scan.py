"""scripts/contract_scan.py --quick: no converged reason with a wrong x."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_quick_scan_has_no_converged_wrong_solve(capsys):
    spec = importlib.util.spec_from_file_location(
        "contract_scan", os.path.join(ROOT, "scripts", "contract_scan.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    print("\n".join(lines))
    cells = [line.split() for line in lines[1:-1]]
    # 2 settings x 2 halves x (4 families + a total)
    assert len(cells) == 20
    for cell in cells:
        assert cell[4] == "0", cell                     # converged-wrong
    totals = {" ".join(cell[:2]): [int(c) for c in cell[3:7]]
              for cell in cells if cell[2] == "total"}
    # 4 families x 5 seeds x 3 problems per half, each counted once
    assert all(sum(counts) == 60 for counts in totals.values())
    assert totals["plain compatible"][0] == totals["reorth compatible"][0] == 60
