"""Consolidated experiment report.

Collects the per-table/figure text artifacts the benchmark suite writes to
``benchmarks/results/`` into one ordered report (the reproduction's
answer to the paper's evaluation section).  Used by
``python -m repro.eval.report [results_dir [out_file]]``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Heading of the report.
REPORT_TITLE = "GenDT reproduction — experiment report"

#: Canonical presentation order: (file stem, paper reference).
REPORT_SECTIONS: Tuple[Tuple[str, str], ...] = (
    ("table01_dataset_a_stats", "Table 1 — Dataset A statistics"),
    ("table02_dataset_b_stats", "Table 2 — Dataset B statistics"),
    ("fig01_02_stochasticity", "Figures 1-2 — repeated-drive stochasticity"),
    ("fig04_cell_density", "Figure 4 — cell density per scenario"),
    ("fig16_serving_distance_cdf", "Figure 16 — serving-cell distance CDFs"),
    ("table03_dataset_a_rsrp", "Table 3 — RSRP fidelity per scenario (A)"),
    ("table04_dataset_a_all_kpis", "Table 4 — all-KPI averages (A)"),
    ("table05_dataset_b_rsrp", "Table 5 — RSRP fidelity per scenario (B)"),
    ("table06_dataset_b_average", "Table 6 — RSRP/RSRQ averages (B)"),
    ("table07_long_trajectory", "Table 7 — long & complex trajectory"),
    ("table08_fig10_stitching", "Table 8 / Figure 10 — stitching comparison"),
    ("fig09_envelope", "Figure 9 — generation envelope"),
    ("fig11_active_learning", "Figure 11 — uncertainty-guided selection"),
    ("table09_fig12_qoe", "Table 9 / Figure 12 — QoE prediction"),
    ("table10_fig13_handover", "Table 10 / Figure 13 — handover analysis"),
    ("table12_ablation", "Table 12 — ablation"),
    ("fig18_sample_series", "Figure 18 — sample generated series"),
    ("appendix_a3_step_sweep", "Appendix A.3 — sliding-step sweep"),
    ("appendix_a3_noise_sweep", "Appendix A.3 — noise-intensity sweep"),
)


def collect_results(results_dir: Path) -> Dict[str, str]:
    """Read every known result artifact present in ``results_dir``."""
    found: Dict[str, str] = {}
    for stem, _ in REPORT_SECTIONS:
        path = results_dir / f"{stem}.txt"
        if path.exists():
            found[stem] = path.read_text().rstrip()
    return found


def build_report(results_dir: Path) -> str:
    """Assemble the ordered report; missing sections are listed at the end."""
    found = collect_results(results_dir)
    rule = "=" * 74
    lines: List[str] = [rule, REPORT_TITLE, rule, ""]
    missing: List[str] = []
    for stem, heading in REPORT_SECTIONS:
        if stem in found:
            lines.append(f"--- {heading} " + "-" * max(0, 70 - len(heading)))
            lines.append(found[stem])
            lines.append("")
        else:
            missing.append(heading)
    if missing:
        lines.append("missing sections (benchmark not yet run):")
        lines.extend(f"  - {name}" for name in missing)
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    results_dir = Path(argv[0]) if argv else Path("benchmarks/results")
    report = build_report(results_dir)
    if len(argv) > 1:
        Path(argv[1]).write_text(report + "\n")
        print(f"report written to {argv[1]}")
    else:
        print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
