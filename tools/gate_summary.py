"""Summarize a Tier-1 run from pytest's JUnit XML and check its reds.

Usage:
    python -m pytest -q --junitxml=junit.xml
    python tools/gate_summary.py junit.xml

Prints the pass/fail/error/skip counts and every red test, and exits 0 only
when the reds are exactly the three acceptance legs documented as
infeasible at their stated thresholds (see README "Install and test").  It
reads the report only: no test, bound or tolerance is changed.  Standard
library only.
"""
import sys
import xml.etree.ElementTree as ET

EXPECTED_RED = {
    ("test_acceptance", "test_criterion_3_gaussian_kernel_limit"),
    ("test_acceptance", "test_criterion_4_gaussian"),
    ("test_acceptance", "test_criterion_4_inverted_logistic"),
}


def summarize(path):
    """(counts, red test ids) of a JUnit XML report; ids are (module, name)."""
    counts = {"passed": 0, "failed": 0, "error": 0, "skipped": 0}
    red = set()
    for case in ET.parse(path).getroot().iter("testcase"):
        module = case.get("classname", "").split(".")[-1]
        tags = {child.tag for child in case}
        if "failure" in tags or "error" in tags:
            counts["failed" if "failure" in tags else "error"] += 1
            red.add((module, case.get("name", "")))
        elif "skipped" in tags:
            counts["skipped"] += 1
        else:
            counts["passed"] += 1
    return counts, red


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    counts, red = summarize(argv[1])
    print(", ".join(f"{n} {k}" for k, n in counts.items()))
    for module, name in sorted(red):
        mark = "documented" if (module, name) in EXPECTED_RED else "UNEXPECTED"
        print(f"red  {module}::{name}  ({mark})")
    for module, name in sorted(EXPECTED_RED - red):
        print(f"green  {module}::{name}  (documented red leg passed)")
    ok = red == EXPECTED_RED
    print("gate: " + ("only the documented legs are red" if ok
                      else "reds differ from the documented legs"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
