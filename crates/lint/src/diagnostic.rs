//! Diagnostics: stable codes, severities and locations.
//!
//! Every finding a lint pass can emit is registered here with a **stable**
//! `P3xxx` code. Codes are part of the machine-readable contract
//! (`results/lint_<exp>.json`, allow-lists, CI greps): once published a
//! code's meaning never changes and retired codes are never recycled.
//!
//! Code blocks by pass family:
//!
//! | range  | pass            | subject                                   |
//! |--------|-----------------|-------------------------------------------|
//! | P300x  | `structure`     | netlist DAG invariants beyond the builder |
//! | P310x  | `wrapper-mux`   | inserted wrapper-mux wiring               |
//! | P320x  | `scan-chain`    | scan-chain connectivity/ordering          |
//! | P330x  | `tsv-coverage`  | pre-bond TSV boundary coverage            |
//! | P340x  | `timing-model`  | timing-model/threshold sanity, slack      |
//! | P350x  | `mission-equiv` | mission-mode co-simulation                |
//! | P360x  | `report-schema` | run/BENCH report JSON schema              |
//! | P370x  | —               | retired (serving-report consistency); never reused |
//! | P380x  | `dataflow`      | fixpoint constant/X propagation, static testability |

use std::fmt;

use prebond3d_obs::json::Value;

/// Severity of a diagnostic.
///
/// `Error` findings violate a paper contract (Table III's zero violations,
/// full TSV coverage, transparent insertion) and fail lint-gated runs;
/// `Warn` findings are suspicious but not contract-breaking; `Info`
/// findings attach rationale (e.g. why a cone-overlapping share is
/// admissible) without judging it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Context a reviewer may want; never fails a run.
    Info,
    /// Suspicious structure worth a look; never fails a run.
    Warn,
    /// A violated invariant; fails lint-gated runs.
    Error,
}

impl Severity {
    /// Lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A stable diagnostic code (`P3xxx`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Code(pub u16);

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

// --- structure (P300x) --------------------------------------------------
/// Gate arity does not match its kind.
pub const ARITY_MISMATCH: Code = Code(3001);
/// Two gates share one instance name.
pub const DUPLICATE_NAME: Code = Code(3002);
/// A gate input references a non-existent gate id.
pub const DANGLING_INPUT: Code = Code(3003);
/// A gate input references a non-driving kind (output/TSV-out marker).
pub const NON_DRIVING_INPUT: Code = Code(3004);
/// The combinational subgraph contains a cycle.
pub const COMBINATIONAL_LOOP: Code = Code(3005);
/// Combinational logic that reaches no sink (unobservable).
pub const DEAD_LOGIC: Code = Code(3006);
/// A source (PI, inbound TSV) that drives nothing.
pub const UNUSED_SOURCE: Code = Code(3007);

// --- wrapper-mux (P310x) ------------------------------------------------
/// A wrapped inbound TSV still feeds functional logic directly.
pub const WRAPPER_FANOUT_LEAK: Code = Code(3101);
/// Wrapper-mux wiring cannot be made transparent (wrong select/data pins).
pub const WRAPPER_NON_TRANSPARENT: Code = Code(3102);
/// A wrapper mux drives nothing: the wrap has no effect.
pub const WRAPPER_DANGLING_MUX: Code = Code(3103);

// --- scan-chain (P320x) -------------------------------------------------
/// A scan-accessible cell is missing from the chain.
pub const SCAN_MISSING_CELL: Code = Code(3201);
/// A cell appears more than once in the chain.
pub const SCAN_DUPLICATE_CELL: Code = Code(3202);
/// A chain entry is not a scan-accessible cell.
pub const SCAN_NOT_A_CELL: Code = Code(3203);

// --- tsv-coverage (P330x) -----------------------------------------------
/// A pre-bond TSV crossing no wrapper cell serves.
pub const TSV_UNWRAPPED: Code = Code(3301);
/// A TSV wrapped by more than one assignment.
pub const TSV_DOUBLE_WRAPPED: Code = Code(3302);
/// An assignment references wrong-kind ids or reuses a flip-flop twice.
pub const TSV_INVALID_ASSIGNMENT: Code = Code(3303);
/// A shared scan-FF wrap with overlapping cones, with its justification.
pub const TSV_SHARED_OVERLAP: Code = Code(3304);
/// Overlapping-cone sharing under a policy that forbids it.
pub const TSV_OVERLAP_FORBIDDEN: Code = Code(3305);

// --- timing-model (P340x) -----------------------------------------------
/// Wire delay is not monotone in distance.
pub const WIRE_DELAY_NON_MONOTONE: Code = Code(3401);
/// Driver-visible wire load is not monotone in distance.
pub const WIRE_LOAD_NON_MONOTONE: Code = Code(3402);
/// Thresholds (`d_th`/`s_th`/`cap_th`/`cov_th`/`p_th`) are not sane.
pub const THRESHOLDS_INSANE: Code = Code(3403);
/// Negative worst slack after DFT insertion.
pub const NEGATIVE_POST_SLACK: Code = Code(3404);

// --- mission-equiv (P350x) ----------------------------------------------
/// Mission-mode co-simulation mismatch at a functional sink.
pub const MISSION_MISMATCH: Code = Code(3501);

// --- report-schema (P360x) ----------------------------------------------
/// A run/BENCH report file is not parseable JSON.
pub const REPORT_UNPARSABLE: Code = Code(3601);
/// A run/BENCH report drifted from its golden schema.
pub const REPORT_SCHEMA_DRIFT: Code = Code(3602);
/// A run/BENCH report omits the expected telemetry blocks (hists/mem).
pub const REPORT_MISSING_TELEMETRY: Code = Code(3603);

// --- dataflow (P380x) -----------------------------------------------------
/// A combinational net the value-set fixpoint proves constant.
pub const DATAFLOW_CONST_NET: Code = Code(3801);
/// A gate whose output cannot reach any capture point even fully wrapped.
pub const DATAFLOW_DEAD_GATE: Code = Code(3802);
/// An unscanned state element rooting an X-only cone no wrapper recovers.
pub const DATAFLOW_X_CONE: Code = Code(3803);
/// Summary: stuck-at faults provably untestable pre-bond (Deep only).
pub const DATAFLOW_UNTESTABLE_FAULTS: Code = Code(3804);
/// A TSV boundary net statically untestable however the die is wrapped.
pub const DATAFLOW_UNTESTABLE_BOUNDARY: Code = Code(3805);
/// Summary: nets with saturated SCOAP detect cost pre-bond (Deep only).
pub const DATAFLOW_HARD_TO_TEST: Code = Code(3806);

/// One registry row: code, short name, default severity, description.
pub type RegistryRow = (Code, &'static str, Severity, &'static str);

/// The full, stable code registry. Ordered by code; append-only.
pub const REGISTRY: &[RegistryRow] = &[
    (
        ARITY_MISMATCH,
        "arity-mismatch",
        Severity::Error,
        "gate arity does not match its kind",
    ),
    (
        DUPLICATE_NAME,
        "duplicate-name",
        Severity::Error,
        "two gates share one instance name",
    ),
    (
        DANGLING_INPUT,
        "dangling-input",
        Severity::Error,
        "gate input references a missing gate",
    ),
    (
        NON_DRIVING_INPUT,
        "non-driving-input",
        Severity::Error,
        "gate input references a non-driving kind",
    ),
    (
        COMBINATIONAL_LOOP,
        "combinational-loop",
        Severity::Error,
        "combinational subgraph contains a cycle",
    ),
    (
        DEAD_LOGIC,
        "dead-logic",
        Severity::Warn,
        "combinational logic reaches no sink",
    ),
    (
        UNUSED_SOURCE,
        "unused-source",
        Severity::Warn,
        "source drives nothing",
    ),
    (
        WRAPPER_FANOUT_LEAK,
        "wrapper-fanout-leak",
        Severity::Error,
        "wrapped inbound TSV still feeds logic directly",
    ),
    (
        WRAPPER_NON_TRANSPARENT,
        "wrapper-non-transparent",
        Severity::Error,
        "wrapper mux select/data wiring is wrong",
    ),
    (
        WRAPPER_DANGLING_MUX,
        "wrapper-dangling-mux",
        Severity::Warn,
        "wrapper mux drives nothing",
    ),
    (
        SCAN_MISSING_CELL,
        "scan-missing-cell",
        Severity::Error,
        "scan-accessible cell missing from the chain",
    ),
    (
        SCAN_DUPLICATE_CELL,
        "scan-duplicate-cell",
        Severity::Error,
        "cell appears more than once in the chain",
    ),
    (
        SCAN_NOT_A_CELL,
        "scan-not-a-cell",
        Severity::Error,
        "chain entry is not a scan-accessible cell",
    ),
    (
        TSV_UNWRAPPED,
        "tsv-unwrapped",
        Severity::Error,
        "pre-bond TSV crossing left unwrapped",
    ),
    (
        TSV_DOUBLE_WRAPPED,
        "tsv-double-wrapped",
        Severity::Error,
        "TSV wrapped by more than one assignment",
    ),
    (
        TSV_INVALID_ASSIGNMENT,
        "tsv-invalid-assignment",
        Severity::Error,
        "assignment references wrong-kind ids or double-reuses a flip-flop",
    ),
    (
        TSV_SHARED_OVERLAP,
        "tsv-shared-overlap",
        Severity::Info,
        "shared wrap with overlapping cones (justification attached)",
    ),
    (
        TSV_OVERLAP_FORBIDDEN,
        "tsv-overlap-forbidden",
        Severity::Error,
        "cone-overlapping share under a no-overlap policy",
    ),
    (
        WIRE_DELAY_NON_MONOTONE,
        "wire-delay-non-monotone",
        Severity::Error,
        "wire delay not monotone in distance",
    ),
    (
        WIRE_LOAD_NON_MONOTONE,
        "wire-load-non-monotone",
        Severity::Error,
        "driver wire load not monotone in distance",
    ),
    (
        THRESHOLDS_INSANE,
        "thresholds-insane",
        Severity::Error,
        "threshold values are not sane",
    ),
    (
        NEGATIVE_POST_SLACK,
        "negative-post-slack",
        Severity::Error,
        "negative worst slack after DFT insertion",
    ),
    (
        MISSION_MISMATCH,
        "mission-mismatch",
        Severity::Error,
        "mission-mode co-simulation mismatch at a functional sink",
    ),
    (
        REPORT_UNPARSABLE,
        "report-unparsable",
        Severity::Error,
        "report file is not valid JSON",
    ),
    (
        REPORT_SCHEMA_DRIFT,
        "report-schema-drift",
        Severity::Error,
        "report drifted from its golden schema",
    ),
    (
        REPORT_MISSING_TELEMETRY,
        "report-missing-telemetry",
        Severity::Warn,
        "report omits the expected telemetry blocks (hists/mem)",
    ),
    (
        DATAFLOW_CONST_NET,
        "dataflow-const-net",
        Severity::Warn,
        "combinational net provably constant on every pattern",
    ),
    (
        DATAFLOW_DEAD_GATE,
        "dataflow-dead-gate",
        Severity::Warn,
        "gate output cannot reach any capture point even fully wrapped",
    ),
    (
        DATAFLOW_X_CONE,
        "dataflow-x-cone",
        Severity::Warn,
        "unscanned state roots an uncontrollable X-only cone",
    ),
    (
        DATAFLOW_UNTESTABLE_FAULTS,
        "dataflow-untestable-faults",
        Severity::Info,
        "stuck-at faults provably untestable pre-bond",
    ),
    (
        DATAFLOW_UNTESTABLE_BOUNDARY,
        "dataflow-untestable-boundary",
        Severity::Error,
        "TSV boundary statically untestable however wrapped",
    ),
    (
        DATAFLOW_HARD_TO_TEST,
        "dataflow-hard-to-test",
        Severity::Info,
        "nets with saturated SCOAP detect cost pre-bond",
    ),
];

/// Look up a code's registry row.
pub fn registry_row(code: Code) -> Option<&'static RegistryRow> {
    REGISTRY.iter().find(|(c, ..)| *c == code)
}

/// Where a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Location {
    /// The artifact being linted: a netlist/die label, a report path, …
    pub artifact: String,
    /// The specific item inside the artifact (gate, sink, TSV, field).
    pub item: Option<String>,
}

impl Location {
    /// Location with artifact only.
    pub fn artifact(artifact: impl Into<String>) -> Self {
        Location {
            artifact: artifact.into(),
            item: None,
        }
    }

    /// Location with artifact and item.
    pub fn item(artifact: impl Into<String>, item: impl Into<String>) -> Self {
        Location {
            artifact: artifact.into(),
            item: Some(item.into()),
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.item {
            Some(item) => write!(f, "{}:{item}", self.artifact),
            None => f.write_str(&self.artifact),
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable `P3xxx` code.
    pub code: Code,
    /// Effective severity (the registry default unless a pass escalates).
    pub severity: Severity,
    /// What it points at.
    pub location: Location,
    /// Human-readable statement of the finding.
    pub message: String,
    /// Optional remediation / rationale hint.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Build a diagnostic with the code's registry-default severity.
    ///
    /// # Panics
    ///
    /// Panics if `code` is not in [`REGISTRY`] — an unregistered code is a
    /// programming error in the pass, not an input-data condition.
    pub fn new(code: Code, location: Location, message: impl Into<String>) -> Self {
        let (_, _, severity, _) =
            registry_row(code).unwrap_or_else(|| panic!("unregistered lint code {code}"));
        Diagnostic {
            code,
            severity: *severity,
            location,
            message: message.into(),
            help: None,
        }
    }

    /// Attach a help/rationale string.
    #[must_use]
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Override the severity (e.g. escalate a Warn under a strict policy).
    #[must_use]
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Serialize for `results/lint_<exp>.json`.
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("code", Value::Str(self.code.to_string())),
            ("severity", self.severity.label().into()),
            ("artifact", self.location.artifact.as_str().into()),
            ("message", self.message.as_str().into()),
        ];
        if let Some(item) = &self.location.item {
            pairs.push(("item", item.as_str().into()));
        }
        if let Some(help) = &self.help {
            pairs.push(("help", help.as_str().into()));
        }
        Value::obj(pairs)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.code, self.severity, self.location, self.message
        )?;
        if let Some(help) = &self.help {
            write!(f, "\n    = help: {help}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_codes_are_unique_sorted_and_in_band() {
        let mut prev = 0u16;
        for &(code, name, _, desc) in REGISTRY {
            assert!(code.0 > prev, "{code} out of order or duplicated");
            assert!(
                (3000..4000).contains(&code.0),
                "{code} outside the P3xxx band"
            );
            assert!(!name.is_empty() && !desc.is_empty());
            prev = code.0;
        }
    }

    #[test]
    fn diagnostic_uses_registry_severity() {
        let d = Diagnostic::new(TSV_UNWRAPPED, Location::item("die0", "tsv_in3"), "m");
        assert_eq!(d.severity, Severity::Error);
        let d = Diagnostic::new(DEAD_LOGIC, Location::artifact("die0"), "m");
        assert_eq!(d.severity, Severity::Warn);
        let d = d.with_severity(Severity::Error);
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn unregistered_code_panics() {
        let _ = Diagnostic::new(Code(3999), Location::artifact("x"), "m");
    }

    #[test]
    fn display_formats() {
        assert_eq!(Code(3301).to_string(), "P3301");
        let d = Diagnostic::new(
            TSV_UNWRAPPED,
            Location::item("b11 Die0", "tsv_in3"),
            "unwrapped",
        )
        .with_help("add an assignment");
        let text = d.to_string();
        assert!(text.contains("P3301"));
        assert!(text.contains("error"));
        assert!(text.contains("b11 Die0:tsv_in3"));
        assert!(text.contains("help: add an assignment"));
    }

    #[test]
    fn json_carries_all_fields() {
        let d = Diagnostic::new(MISSION_MISMATCH, Location::item("die", "po3"), "diverged")
            .with_help("co-simulate");
        let j = d.to_json();
        assert_eq!(j.get("code").unwrap().as_str(), Some("P3501"));
        assert_eq!(j.get("severity").unwrap().as_str(), Some("error"));
        assert_eq!(j.get("item").unwrap().as_str(), Some("po3"));
        assert_eq!(j.get("help").unwrap().as_str(), Some("co-simulate"));
    }
}
