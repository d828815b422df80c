"""Output gate: label-free projections of reports and the checks on them.

A job's canonical stdout is checked two ways.  At seed 0 the inputs are the
library groups, so the exit code and the sha256 of the output must equal the
committed reference.  At any other seed the points are relabelled, so only a
projection that no relabelling can change is compared with the reference
projection: the exit code, the group order, the multiset of (check, verdict,
left, right), the degree multisets, the multiset of block (defect, size) and
the orbit counts.  Independently of the reference, orders and class numbers
must match the hand-written values in ``workloads.KNOWN_ATOMS``, no report may
carry verdict ``fail``, and every applicable count check must have
left == right.
"""

from __future__ import annotations

import json

from workloads import known_order_and_classes


def _sorted_multiset(items: list) -> list:
    return sorted(items, key=lambda x: json.dumps(x))


def projection(exit_code: int | None, text: str) -> dict:
    proj: dict = {"exit": exit_code}
    if not text:
        return proj
    doc = json.loads(text)
    if "group" in doc:
        proj["order"] = doc["group"]["order"]
    if "trials" in doc:  # repair-demo
        proj["trials"] = doc["trials"]
        proj["all_passed"] = doc["all_passed"]
    checks, degrees, blocks, orbit_counts = [], [], [], []
    for rep in doc.get("results", []):
        checks.append([rep["check"], rep["verdict"],
                       rep["left_count"], rep["right_count"]])
        wit = rep["witness"]
        if "chain_orbits" in wit:
            orbit_counts.append(len(wit["chain_orbits"]))
        for key in ("height_zero_degrees", "local_height_zero_degrees"):
            if key in wit:
                degrees.append(sorted(wit[key]))
    result = doc.get("result", {})
    if "degrees" in result:  # table
        degrees.append(sorted(result["degrees"]))
        proj["classes"] = len(result["degrees"])
    for b in result.get("blocks", []):
        degrees.append(sorted(b["degrees"]))
        blocks.append([b["defect"], len(b["members"])])
    if "orbit_count" in result:
        orbit_counts.append(result["orbit_count"])
    proj["checks"] = _sorted_multiset(checks)
    proj["degrees"] = _sorted_multiset(degrees)
    proj["blocks"] = _sorted_multiset(blocks)
    proj["orbit_counts"] = sorted(orbit_counts)
    return proj


def independent_failures(group: str | None, proj: dict) -> list[str]:
    """Failures found without the reference: known answers and verdicts."""
    out = []
    if group is not None and "order" in proj:
        order, classes = known_order_and_classes(group)
        if proj["order"] != order:
            out.append(f"order {proj['order']} != known {order}")
        if "classes" in proj and proj["classes"] != classes:
            out.append(f"class number {proj['classes']} != known {classes}")
        if proj["blocks"] and sum(size for _, size in proj["blocks"]) != classes:
            out.append(f"blocks do not partition the {classes} characters")
        if "classes" in proj or proj["blocks"]:
            sq = sum(d * d for degs in proj["degrees"] for d in degs)
            if sq != order:
                out.append(f"sum of squared degrees {sq} != |G| = {order}")
    for check, verdict, left, right in proj.get("checks", []):
        if verdict == "fail":
            out.append(f"{check} reports fail")
        elif verdict != "not-applicable" and left != right:
            out.append(f"{check}: left {left} != right {right}")
    return out


def job_failures(group: str | None, record: dict, ref: dict, seed: int) -> list[str]:
    """Every reason a job counts as failed; empty when it passed."""
    if record.get("raised"):
        return [f"raised {record['raised']}"]
    out = []
    if record["exit"] != ref["exit"]:
        out.append(f"exit {record['exit']} != reference {ref['exit']}")
    if seed == 0:
        if record["sha256"] != ref["sha256"]:
            out.append("output differs from the seed-0 reference")
    elif record["projection"] != ref["projection"]:
        out.append("projection differs from the seed-0 reference")
    out.extend(independent_failures(group, record["projection"]))
    return out
