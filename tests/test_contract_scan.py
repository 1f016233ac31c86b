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
    # (2 settings x 2 halves + the diagonal setting's compatible half)
    # x (4 families + a total), and the nonsingular setting's 2 processes
    # x (4 classes + a total)
    assert len(cells) == 35
    for cell in cells:
        assert cell[4] == "0", cell                     # converged-wrong
    totals = {" ".join(cell[:2]): [int(c) for c in cell[3:7]]
              for cell in cells if cell[2] == "total"}
    assert set(totals) == {"plain compatible", "plain least-squares", "reorth compatible",
                           "reorth least-squares", "diagonal compatible",
                           "nonsingular plain", "nonsingular reorth"}
    # 4 families x 5 seeds x 3 problems per half, each counted once
    assert all(sum(counts) == 60 for key, counts in totals.items()
               if not key.startswith("nonsingular"))
    assert all(totals[f"{s} compatible"][0] == 60 for s in ("plain", "reorth", "diagonal"))
    # 3 classes x n = 2-8 and ss x n = 2, 4, 6, 8, at 5 seeds: a solve
    # that does not converge stops on the length bound
    for process in ("plain", "reorth"):
        assert sum(totals[f"nonsingular {process}"]) == 125
        cell = next(c for c in cells if c[:3] == ["nonsingular", process, "total"])
        # label, 4 counts, "worst" and its value, then reason-count pairs
        assert set(cell[9::2]) <= {"Converged_Rnorm", "Converged_ArNorm", "XnormExceeded"}
