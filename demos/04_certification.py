"""Run the certification suite and archive the report.

Every closed-form value the library exposes is re-derived along an
independent numerical route; this prints the full table and stores the
JSON report as cert_report.json in the working directory.  Exit status follows the suite result,
so the script doubles as a health check:

    python3 demos/04_certification.py && echo all good
"""

import sys
from pathlib import Path

from xapprox import reports_passed, reports_to_json, reports_to_table, run_cert_suite

OUT = Path("cert_report.json")  # in the working directory


def main():
    reports = run_cert_suite()
    print(reports_to_table(reports))
    OUT.write_text(reports_to_json(reports) + "\n")

    worst = max(reports, key=lambda r: r.abs_diff / (r.tolerance or 1.0))
    total_ms = sum(r.runtime_ms for r in reports)
    print(f"\n{len(reports)} checks in {total_ms / 1000.0:.2f}s; "
          f"tightest margin: {worst.name} "
          f"(diff {worst.abs_diff:.2e} vs tol {worst.tolerance:.1e})")
    print(f"wrote {OUT.resolve()}")
    return 0 if reports_passed(reports) else 1


if __name__ == "__main__":
    sys.exit(main())
