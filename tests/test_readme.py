"""The README's library quick tour runs as written and gives the results
its comments state."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs_as_documented():
    tour = re.search(r"## Library quick tour\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    ns = {}
    exec(compile(tour, "README.md quick tour", "exec"), ns)
    v, a, b, r = ns["v"], ns["a"], ns["b"], ns["r"]
    assert v.holds is True
    assert v.detail == "strictly less"
    assert (v.certificate["rank_a"], v.certificate["rank_b"], v.certificate["rank_diff"]) == (1, 2, 1)
    assert ns["lowner_leq"](a, b).holds is True
    # the tour's last line, the reconstruction error of A from S E_1 S^T
    assert np.max(np.abs(r.s @ np.diag([1.0, 0.0, 0.0]) @ r.s.T - a.a)) < 1e-14
