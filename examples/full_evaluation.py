"""Regenerate every table and figure of the paper's evaluation.

Run:  python examples/full_evaluation.py [tiny|small|paper]

``small`` (default) completes in ~a minute; ``paper`` uses the exact
Table 5 sizes and takes several minutes of pure-Python interpretation.
"""

import sys

from repro.experiments.report import report_lines, run_all


if __name__ == "__main__":
    scale = sys.argv[1] if len(sys.argv) > 1 else "small"
    for line in report_lines(run_all(scale), scale, seed=0):
        print(line)
