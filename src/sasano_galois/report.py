"""Certificate reports for the verification pipeline.

Every computed fact is emitted as a certificate step carrying a claim, the
basis on which the claim is checked, and the exact values involved.  Exact
numbers appear three ways at once: as a string in tower coordinates, as
their nonzero coordinates in sorted [exponent vector, "p/q"] pairs
(8*g^6 - 1/2 is [[[0, 0, 0], "-1/2"], [[6, 0, 0], "8"]]), and as a
fixed-precision numeric rendering.
Reports serialize to JSON and Markdown; both renderings are deterministic
functions of the input, so repeated runs produce identical bytes.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

from .algnum import AlgNum, TowerError, algnum_to_json, tower_to_json
from .diffsys import DiffSystem
from .galois import GaloisOutcome, classify_blocks
from .ratfunc import RatFunc, VerificationError
from .reduction import (
    ChainConfig,
    ConsistencyReport,
    ReductionTrace,
    canonical_config,
    run_canonical_chain,
    verify_trace_consistency,
    wasow_config,
)
from .sasano import seed_variational_system
from .weyl import OrbitResult, ParamTriple, SolutionState, enumerate_orbit, seed_state

SECTION_ORDER = (
    "model check",
    "normal variational equations",
    "reduction trace",
    "apparent singularity",
    "whittaker normal form",
    "stokes flags",
    "galois components",
    "final verdict",
    "orbit summary",
)

STATUSES = ("pass", "fail", "inconclusive")


# -- exact-value payloads ----------------------------------------------------------


def format_numeric(a: AlgNum, digits: int = 20) -> str:
    """Decimal rendering of a tower element, every digit proven: the parts are
    rounded from the embedding at digits + 10, good to about digits + 25
    digits, so only a value that near a rounding tie raises (an exact tie
    would at any precision)."""
    parts = a.embed(digits + 10).decimal(digits)
    if not parts:
        raise TowerError(f"the enclosure of {a} does not decide {digits} digits")
    re, im = parts
    if im == "0.0":
        return re
    if re == "0.0":
        return f"{im}*i"
    if im.startswith("-"):
        return f"{re} - {im[1:]}*i"
    return f"{re} + {im}*i"


def algnum_payload(a: AlgNum, digits: int = 20) -> dict[str, Any]:
    """One exact value: coordinate string, coordinate pairs, numeric rendering."""
    return {
        "exact": str(a),
        "coords": algnum_to_json(a),
        "numeric": format_numeric(a, digits),
    }


def matrix_payload(system: DiffSystem) -> dict[str, Any]:
    return {
        "variable": system.var,
        "rows": [[e.render(system.var) for e in row] for row in system.matrix],
    }


# -- report structure --------------------------------------------------------------


class CertificateStep(NamedTuple):
    """One verified claim with the values that witness it."""

    claim: str
    basis: str
    values: tuple[tuple[str, Any], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {"claim": self.claim, "basis": self.basis, "values": dict(self.values)}


class ReportSection(NamedTuple):
    name: str
    status: str  # pass | fail | inconclusive
    steps: tuple[CertificateStep, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "steps": [s.to_dict() for s in self.steps],
        }


class ProofReport(NamedTuple):
    title: str
    sections: tuple[ReportSection, ...]
    normalization: str | None = None
    tower: dict | None = None
    verdict: str | None = None

    def all_pass(self) -> bool:
        return all(s.status == "pass" for s in self.sections)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"title": self.title}
        if self.normalization is not None:
            out["normalization"] = self.normalization
        out["sections"] = [s.to_dict() for s in self.sections]
        if self.verdict is not None:
            out["verdict"] = self.verdict
        if self.tower is not None:
            out["tower"] = self.tower
        return out


def report_to_json(report: ProofReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


# -- section builders --------------------------------------------------------------


def failure_section(name: str, basis: str, error: Exception) -> ReportSection:
    step = CertificateStep(
        claim="verification failed",
        basis=basis,
        values=(("error", str(error)),),
    )
    return ReportSection(name=name, status="fail", steps=(step,))


def model_section(state: SolutionState) -> ReportSection:
    params = state.params
    relation = params.a0 + 2 * params.a1 + 2 * params.a2
    steps = (
        CertificateStep(
            claim="the parameter triple satisfies a0 + 2*a1 + 2*a2 = 1",
            basis="direct evaluation of the affine relation",
            values=(
                ("params", params.render()),
                ("relation value", str(relation)),
            ),
        ),
        CertificateStep(
            claim="the rational functions solve the Hamiltonian system at these parameters",
            basis="substitution into all five equations of motion, exactly over Q(t)",
            values=tuple((k, v.render("t")) for k, v in state.as_solution().items()),
        ),
    )
    return ReportSection(name="model check", status="pass", steps=steps)


def nve_section(system: DiffSystem) -> ReportSection:
    step = CertificateStep(
        claim="the variational equations along the solution restrict to this 4x4 normal part",
        basis="linearization of the flow and projection off the solution plane",
        values=(("system", matrix_payload(system)),),
    )
    return ReportSection(name="normal variational equations", status="pass", steps=(step,))


def reduction_section(
    trace: ReductionTrace, consistency: ConsistencyReport, digits: int = 20
) -> ReportSection:
    steps = [
        CertificateStep(
            claim=f'stage "{gs.stage}" reproduced entrywise',
            basis=gs.move.basis,
            values=(
                ("transformation", gs.move.kind),
                *gs.move.report_values(gs, lambda a: algnum_payload(a, digits)),
                ("system", matrix_payload(gs.after)),
            ),
        )
        for gs in trace.steps
    ]
    eig_values: list[tuple[str, Any]] = [
        (f"lambda{i}", algnum_payload(lam, digits))
        for i, lam in enumerate(trace.eigenvalues, start=1)
    ]
    eig_values.append(("characteristic polynomial", consistency.polynomial.render("l")))
    eig_values.append(("leading exponent", str(trace.leading_exponent)))
    steps.append(
        CertificateStep(
            claim="the leading matrix of the final stage has the stated eigenvalues",
            basis="characteristic polynomial by the trace recursion, roots checked by substitution",
            values=tuple(eig_values),
        )
    )
    steps.append(
        CertificateStep(
            claim="the recorded chain survives structural, inverse-walk, and numeric audits",
            basis="exact undo of every step plus numeric composition at sample points",
            values=(("checks", list(consistency.names())),),
        )
    )
    return ReportSection(name="reduction trace", status="pass", steps=tuple(steps))


def apparent_section(outcome: GaloisOutcome, digits: int = 20) -> ReportSection:
    steps = []
    for block, cert in zip(outcome.blocks, outcome.apparent):
        steps.append(
            CertificateStep(
                claim="indicial exponents of {} are {} and {}".format(block.label, *cert.exponents),
                basis="indicial polynomial of the regular point, Fuchs relation checked",
                values=(
                    ("exponents", [algnum_payload(e, digits) for e in cert.exponents]),
                ),
            )
        )
        steps.append(
            CertificateStep(
                claim=(
                    f"the {cert.pullback}-fold cover lifts {block.label} to integer"
                    " exponents with no resonance"
                ),
                basis=f"Frobenius recursion checked through order {cert.order}",
                values=(
                    ("lifted exponents", list(cert.lifted_exponents)),
                    ("order", cert.order),
                    ("series terms", [len(s) for s in cert.series]),
                ),
            )
        )
    steps.append(
        CertificateStep(
            claim="the lifted local monodromy datum is the diagonal of integers below",
            basis="exponent lifting on both blocks",
            values=(("diagonal", list(outcome.lifted_diagonal)),),
        )
    )
    return ReportSection(name="apparent singularity", status="pass", steps=tuple(steps))


def whittaker_section(outcome: GaloisOutcome, digits: int = 20) -> ReportSection:
    steps = []
    for block in outcome.blocks:
        wh = block.whittaker
        a, b, c = wh.bracket
        steps.append(
            CertificateStep(
                claim=f"{block.label} rescales exactly to the Whittaker normal form",
                basis="substitution x = scale * zeta, checked forward and inverted back",
                values=(
                    ("A", algnum_payload(a, digits)),
                    ("B", algnum_payload(b, digits)),
                    ("C", algnum_payload(c, digits)),
                    ("scale", algnum_payload(wh.scale, digits)),
                    ("kappa", algnum_payload(wh.kappa, digits)),
                    ("mu", algnum_payload(wh.mu, digits)),
                ),
            )
        )
    return ReportSection(name="whittaker normal form", status="pass", steps=tuple(steps))


def stokes_section(outcome: GaloisOutcome) -> ReportSection:
    steps = []
    for block in outcome.blocks:
        flags = block.stokes
        steps.append(
            CertificateStep(
                claim=f"both Stokes multipliers of {block.label} are nontrivial",
                basis=(
                    "half-integer shift test on kappa and mu, agreeing under both"
                    " conventions for the natural numbers"
                ),
                values=(
                    ("mu1 trivial", flags.mu1_trivial),
                    ("mu2 trivial", flags.mu2_trivial),
                ),
            )
        )
    status = "pass" if all(b.stokes.both_nontrivial() for b in outcome.blocks) else "inconclusive"
    return ReportSection(name="stokes flags", status=status, steps=tuple(steps))


def components_section(outcome: GaloisOutcome) -> ReportSection:
    steps = []
    for block in outcome.blocks:
        steps.append(
            CertificateStep(
                claim=f"the differential Galois group of {block.label} is {block.group}",
                basis="exponential torus together with the nontrivial Stokes matrices",
                values=(("component", block.group),),
            )
        )
    status = "pass" if all(b.group == "SL2" for b in outcome.blocks) else "inconclusive"
    return ReportSection(name="galois components", status=status, steps=tuple(steps))


def verdict_section(verdict: str, prerequisites_pass: bool) -> ReportSection:
    step = CertificateStep(
        claim=f"final verdict: {verdict}",
        basis=(
            "variational criterion: a connected non-abelian identity component"
            " in both factors rules out a complete set of rational first integrals"
        ),
        values=(
            ("verdict", verdict),
            ("prerequisites pass", prerequisites_pass),
        ),
    )
    status = "pass" if verdict == "NotIntegrable" else "inconclusive"
    return ReportSection(name="final verdict", status=status, steps=(step,))


def orbit_section(orbit: OrbitResult, check_rows: bool = True) -> ReportSection:
    per_depth: dict[str, int] = {}
    row_counts: dict[str, int] = {}
    missing: list[str] = []
    for node in orbit.nodes:
        per_depth[str(node.depth)] = per_depth.get(str(node.depth), 0) + 1
        label = f"row {node.matsuda.row}" if node.matsuda.row is not None else "no row"
        row_counts[label] = row_counts.get(label, 0) + 1
        if node.matsuda.row is None:
            missing.append(" ".join(node.word) or "(identity)")
    collisions_equal = all(c.states_equal for c in orbit.collisions)
    steps = [
        CertificateStep(
            claim=(
                f"all {orbit.node_count()} states through depth {orbit.depth} are"
                " verified exact solutions"
            ),
            basis="every node is rebuilt and re-verified on construction",
            values=(
                ("nodes", orbit.node_count()),
                ("per depth", dict(sorted(per_depth.items(), key=lambda kv: int(kv[0])))),
                ("skipped edges", len(orbit.skipped)),
            ),
        ),
        CertificateStep(
            claim="parameter collisions during enumeration all carry identical states",
            basis="state equality audited whenever two words reach one parameter triple",
            values=(
                ("collisions", len(orbit.collisions)),
                ("states equal", collisions_equal),
            ),
        ),
    ]
    status = "pass" if collisions_equal and not orbit.skipped else "fail"
    if check_rows:
        steps.append(
            CertificateStep(
                claim="every orbit node matches a row of the integrality table",
                basis="reduction of the parameter pair mod 5 against the four stated rows",
                values=(
                    ("row counts", dict(sorted(row_counts.items()))),
                    ("nodes without a row", missing),
                ),
            )
        )
        if missing:
            status = "fail"
    else:
        steps.append(
            CertificateStep(
                claim="row counts recorded without the matching requirement",
                basis="reduction of the parameter pair mod 5",
                values=(("row counts", dict(sorted(row_counts.items()))),),
            )
        )
    return ReportSection(name="orbit summary", status=status, steps=tuple(steps))


# -- top-level drivers -------------------------------------------------------------


def build_seed_report(components: dict[str, RatFunc], params: ParamTriple) -> ProofReport:
    """Report for a single solution check; exactly one model section."""
    try:
        section = model_section(SolutionState.make(**components, params=params))
    except VerificationError as exc:
        section = failure_section("model check", "exact verification of the candidate", exc)
    return ProofReport(title="solution check for the coupled Hamiltonian system", sections=(section,))


def build_orbit_report(orbit: OrbitResult, check_rows: bool) -> ProofReport:
    return ProofReport(
        title=f"reflection orbit audit to depth {orbit.depth}", sections=(orbit_section(orbit, check_rows),)
    )


def run_orbit(depth: int, check_rows: bool) -> tuple[ProofReport, OrbitResult | None]:
    """The seed's orbit to ``depth`` and its report.  A failure of the seed
    or of the proof that lets the search skip back-edges ends the report in
    the orbit's fail section, and there is no orbit."""
    try:
        orbit = enumerate_orbit(seed_state(), depth=depth)
    except VerificationError as exc:
        section = failure_section("orbit summary", "orbit enumeration", exc)
        return ProofReport(title=f"reflection orbit audit to depth {depth}", sections=(section,)), None
    return build_orbit_report(orbit, check_rows), orbit


def build_proof(
    wasow: bool = False,
    stop_after: str | None = None,
    orbit_depth: int = 2,
    digits: int = 20,
) -> ProofReport:
    """Run the full verification pipeline and assemble the certificate.

    ``stop_after`` truncates the pipeline after the named phase (one of
    "nve", "reduction", "classify"); the report then ends with the last
    completed section.  Any :class:`VerificationError` ends the report in
    the fail section of the running phase, so a report is always produced.
    The tower loads in the nve phase; a report that ends before it has
    loaded carries no tower.
    """
    sections: list[ReportSection] = []
    config: ChainConfig | None = None
    verdict: str | None = None

    def finish() -> ProofReport:
        return ProofReport(
            title="differential Galois certificate for the Sasano Hamiltonian system",
            normalization="wasow" if wasow else "canonical",
            tower=None if config is None else tower_to_json(config.constants.tower),
            sections=tuple(sections),
            verdict=verdict,
        )

    # (section, basis) of the fail section the running phase would end in
    phase = ("model check", "seed solution verification")
    try:
        seed = seed_state()
        sections.append(model_section(seed))
        phase = ("normal variational equations", "linearization along the seed")
        config = wasow_config() if wasow else canonical_config()
        nve = seed_variational_system(config.constants.tower)
        sections.append(nve_section(nve))
        if stop_after == "nve":
            return finish()
        phase = ("reduction trace", "staged gauge reduction")
        trace = run_canonical_chain(nve, config)
        sections.append(reduction_section(trace, verify_trace_consistency(trace), digits))
        if stop_after == "reduction":
            return finish()
        phase = ("apparent singularity", "block classification")
        outcome = classify_blocks(trace.blocks)
        sections.append(apparent_section(outcome, digits))
        sections.append(whittaker_section(outcome, digits))
        sections.append(stokes_section(outcome))
        sections.append(components_section(outcome))
        if stop_after == "classify":
            return finish()
        prerequisites = all(s.status == "pass" for s in sections)
        verdict = outcome.verdict if prerequisites else "Inconclusive"
        sections.append(verdict_section(verdict, prerequisites))
        phase = ("orbit summary", "orbit enumeration")
        sections.append(orbit_section(enumerate_orbit(seed, depth=orbit_depth), check_rows=True))
    except VerificationError as exc:
        sections.append(failure_section(*phase, exc))
    return finish()


# -- markdown rendering ------------------------------------------------------------


def _markdown_value(key: str, value: Any, lines: list[str], indent: str = "") -> None:
    if isinstance(value, dict) and "exact" in value and "numeric" in value:
        lines.append(f"{indent}- {key}: `{value['exact']}`  (= {value['numeric']})")
    elif isinstance(value, dict) and "rows" in value:
        lines.append(f"{indent}- {key} (variable `{value['variable']}`):")
        lines.append("")
        lines.append("  ```")
        for row in value["rows"]:
            lines.append("  [" + ",  ".join(row) + "]")
        lines.append("  ```")
    elif isinstance(value, dict):
        lines.append(f"{indent}- {key}:")
        for k, v in value.items():
            _markdown_value(k, v, lines, indent + "  ")
    elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        lines.append(f"{indent}- {key}:")
        for i, v in enumerate(value, start=1):
            _markdown_value(str(i), v, lines, indent + "  ")
    elif isinstance(value, list):
        rendered = ", ".join(str(v) for v in value)
        lines.append(f"{indent}- {key}: [{rendered}]")
    else:
        lines.append(f"{indent}- {key}: {value}")


def report_to_markdown(report: ProofReport) -> str:
    lines = [f"# {report.title}", ""]
    if report.normalization is not None:
        lines.append(f"- normalization: {report.normalization}")
    if report.verdict is not None:
        lines.append(f"- verdict: **{report.verdict}**")
    if report.normalization is not None or report.verdict is not None:
        lines.append("")
    for section in report.sections:
        lines.append(f"## {section.name} [{section.status}]")
        lines.append("")
        for step in section.steps:
            lines.append(f"### {step.claim}")
            lines.append("")
            lines.append(f"basis: {step.basis}")
            lines.append("")
            for key, value in step.values:
                _markdown_value(key, value, lines)
            if step.values:
                lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def orbit_node_json(node) -> dict[str, Any]:
    """One orbit node as a plain JSON object (used for the line export)."""
    state = node.state
    return {
        "word": list(node.word),
        "params": [str(q) for q in state.params.as_tuple()],
        "state": {k: v.render("t") for k, v in state.as_solution().items()},
        "matsuda_row": node.matsuda.row,
    }


def orbit_jsonl(orbit: OrbitResult) -> str:
    """The whole orbit as JSON lines, one node per line, in search order."""
    return "".join(json.dumps(orbit_node_json(n)) + "\n" for n in orbit.nodes)
