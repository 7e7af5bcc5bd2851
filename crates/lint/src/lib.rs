//! # prebond3d-lint
//!
//! Static-analysis pass framework for the `prebond3d` flow: design-rule
//! checks over netlists, wrapper plans, scan chains, timing models and
//! machine-readable run reports, reported as [`Diagnostic`]s with stable
//! `P3xxx` codes.
//!
//! The paper's value proposition is that wrapper-cell reduction stays
//! *safe* — zero timing violations (Table III) and bounded testability
//! loss (Tables IV/V). This crate makes those contracts, plus the
//! structural invariants underneath them, explicitly checkable at every
//! stage of the Fig. 6 flow:
//!
//! | pass            | codes        | checks                                      |
//! |-----------------|--------------|---------------------------------------------|
//! | `structure`     | P3001–P3007  | arity, names, wiring, loops, dead logic      |
//! | `dataflow`      | P3801–P3806  | fixpoint constants, X-cones, static testability |
//! | `wrapper-mux`   | P3101–P3103  | inserted wrapper-mux transparency            |
//! | `scan-chain`    | P3201–P3203  | chain connectivity and single-pass ordering  |
//! | `tsv-coverage`  | P3301–P3305  | every pre-bond crossing wrapped or justified |
//! | `timing-model`  | P3401–P3404  | wire-model monotonicity, thresholds, slack   |
//! | `mission-equiv` | P3501        | mission-mode co-simulation equivalence       |
//! | `report-schema` | P3601–P3602  | run report JSON schema                       |
//!
//! # Example
//!
//! ```
//! use prebond3d_lint::{LintContext, Linter};
//! use prebond3d_netlist::itc99;
//!
//! let die = itc99::generate_flat("demo", 200, 16, 6, 6, 5);
//! let report = Linter::with_default_passes()
//!     .run(&LintContext::new("demo").with_netlist(&die));
//! assert!(!report.has_errors(), "{}", report.render());
//! ```
//!
//! Severity policy: `Error` findings violate a paper contract and fail
//! lint-gated runs; `Warn` findings are suspicious but tolerated; `Info`
//! findings attach rationale without judging. Codes are allow-listable per
//! [`Linter`] run — e.g. the bench harness allows `P3404` for the Agrawal
//! and Li baselines in the tight scenario, whose timing violations are the
//! paper's intended Table III result.
//!
//! Reports serialize through [`LintReport::to_json`]; the `prebond3d-lint`
//! binary writes them to `lint_<exp>.json`, its one machine-readable output.

pub mod context;
pub mod diagnostic;
pub mod flow;
pub mod passes;
pub mod schema;

use std::collections::BTreeSet;

use prebond3d_obs as obs;
use prebond3d_obs::json::Value;

pub use context::{Depth, LintContext};
pub use diagnostic::{Code, Diagnostic, Location, Severity, REGISTRY};

/// One static-analysis pass.
pub trait Pass {
    /// Stable pass name (kebab-case; used in reports).
    fn name(&self) -> &'static str;
    /// One-line description of what the pass checks.
    fn description(&self) -> &'static str;
    /// Codes this pass may emit.
    fn codes(&self) -> &'static [Code];
    /// Inspect `ctx` and append findings to `out`. A pass whose inputs are
    /// absent from the context emits nothing.
    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>);
}

/// A configured pass pipeline with per-run allow-listing.
pub struct Linter {
    passes: Vec<Box<dyn Pass>>,
    allow: BTreeSet<u16>,
    allow_ranges: Vec<(u16, u16)>,
}

impl Linter {
    /// A linter with no passes (register your own).
    pub fn new() -> Self {
        Linter {
            passes: Vec::new(),
            allow: BTreeSet::new(),
            allow_ranges: Vec::new(),
        }
    }

    /// A linter with the full default pipeline.
    pub fn with_default_passes() -> Self {
        let mut l = Linter::new();
        l.register(Box::new(passes::structure::StructurePass));
        l.register(Box::new(passes::dataflow::DataflowPass));
        l.register(Box::new(passes::wrapper::WrapperMuxPass));
        l.register(Box::new(passes::scan::ScanChainPass));
        l.register(Box::new(passes::coverage::TsvCoveragePass));
        l.register(Box::new(passes::timing::TimingModelPass));
        l.register(Box::new(passes::mission::MissionEquivPass));
        l.register(Box::new(passes::report::ReportSchemaPass));
        l
    }

    /// Append a pass to the pipeline.
    pub fn register(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Suppress a code for this linter's runs (counted, not reported).
    #[must_use]
    pub fn allow(mut self, code: Code) -> Self {
        self.allow.insert(code.0);
        self
    }

    /// Suppress an entire code category, written with trailing `x`
    /// wildcards: `"P38xx"` allows every dataflow code, `"P330x"` the
    /// whole TSV-coverage block.
    ///
    /// # Panics
    ///
    /// Panics when `pattern` is not `P` followed by four characters —
    /// leading digits then at least one trailing `x` — because a
    /// malformed category is a programming error at the call site, not
    /// an input-data condition.
    #[must_use]
    pub fn allow_category(mut self, pattern: &str) -> Self {
        let body = pattern.strip_prefix('P').unwrap_or(pattern);
        let wild = body
            .chars()
            .rev()
            .take_while(|c| matches!(c, 'x' | 'X'))
            .count();
        let digits = &body[..body.len() - wild];
        assert!(
            body.len() == 4
                && wild >= 1
                && !digits.is_empty()
                && digits.bytes().all(|b| b.is_ascii_digit()),
            "malformed code category `{pattern}` (want e.g. `P38xx`)"
        );
        let span = 10u16.pow(wild as u32);
        let base: u16 = digits.parse::<u16>().unwrap() * span;
        self.allow_ranges.push((base, base + (span - 1)));
        self
    }

    /// The registered passes.
    pub fn passes(&self) -> &[Box<dyn Pass>] {
        &self.passes
    }

    /// Run every pass over `ctx` and collect the findings.
    pub fn run(&self, ctx: &LintContext<'_>) -> LintReport {
        let _span = obs::span("lint");
        let mut all = Vec::new();
        let mut passes_run = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            pass.run(ctx, &mut all);
            passes_run.push(pass.name());
        }
        let allowed = |code: u16| {
            self.allow.contains(&code)
                || self
                    .allow_ranges
                    .iter()
                    .any(|&(lo, hi)| (lo..=hi).contains(&code))
        };
        let (kept, suppressed): (Vec<_>, Vec<_>) =
            all.into_iter().partition(|d| !allowed(d.code.0));
        let mut diagnostics = kept;
        // Most severe first, then by code and location, for stable output.
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.code.cmp(&b.code))
                .then(a.location.artifact.cmp(&b.location.artifact))
                .then(a.location.item.cmp(&b.location.item))
        });
        obs::count("lint.diagnostics", diagnostics.len() as u64);
        LintReport {
            artifact: ctx.artifact.clone(),
            diagnostics,
            suppressed: suppressed.len(),
            passes_run,
        }
    }
}

impl Default for Linter {
    fn default() -> Self {
        Linter::with_default_passes()
    }
}

/// The outcome of one [`Linter`] run.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// The context's artifact label.
    pub artifact: String,
    /// Findings, most severe first.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings dropped by the allow-list.
    pub suppressed: usize,
    /// Names of the passes that ran.
    pub passes_run: Vec<&'static str>,
}

impl LintReport {
    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// `true` when any Error-severity finding survived the allow-list.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Findings carrying `code`.
    pub fn with_code(&self, code: Code) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Merge another report's findings into this one (multi-die runs).
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
        self.suppressed += other.suppressed;
    }

    /// Human-readable rendering, one line per finding plus a tally.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "{}: {} error(s), {} warning(s), {} info, {} suppressed",
            self.artifact,
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
            self.suppressed,
        );
        out
    }

    /// Serialize for `results/lint_<exp>.json`.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("artifact", self.artifact.as_str().into()),
            ("errors", self.count(Severity::Error).into()),
            ("warnings", self.count(Severity::Warn).into()),
            ("infos", self.count(Severity::Info).into()),
            ("suppressed", self.suppressed.into()),
            (
                "passes",
                Value::Arr(self.passes_run.iter().map(|p| Value::from(*p)).collect()),
            ),
            (
                "diagnostics",
                Value::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pipeline_covers_the_whole_registry() {
        let linter = Linter::with_default_passes();
        let mut covered = BTreeSet::new();
        for pass in linter.passes() {
            for &code in pass.codes() {
                assert!(covered.insert(code.0), "{code} claimed by two passes");
                assert!(
                    diagnostic::registry_row(code).is_some(),
                    "{code} not in the registry"
                );
            }
        }
        for &(code, ..) in REGISTRY {
            assert!(covered.contains(&code.0), "{code} not claimed by any pass");
        }
    }

    #[test]
    fn empty_context_is_clean() {
        let report = Linter::with_default_passes().run(&LintContext::new("empty"));
        assert!(report.diagnostics.is_empty());
        assert!(!report.has_errors());
        assert_eq!(report.passes_run.len(), 8);
    }

    #[test]
    fn allow_list_suppresses_and_counts() {
        let mut linter = Linter::new();
        struct Emit;
        impl Pass for Emit {
            fn name(&self) -> &'static str {
                "emit"
            }
            fn description(&self) -> &'static str {
                "test pass"
            }
            fn codes(&self) -> &'static [Code] {
                &[diagnostic::TSV_UNWRAPPED]
            }
            fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
                out.push(Diagnostic::new(
                    diagnostic::TSV_UNWRAPPED,
                    Location::artifact(&ctx.artifact),
                    "synthetic",
                ));
            }
        }
        linter.register(Box::new(Emit));
        let strict = linter.run(&LintContext::new("x"));
        assert!(strict.has_errors());

        let mut linter = Linter::new();
        linter.register(Box::new(Emit));
        let relaxed = linter
            .allow(diagnostic::TSV_UNWRAPPED)
            .run(&LintContext::new("x"));
        assert!(!relaxed.has_errors());
        assert_eq!(relaxed.suppressed, 1);
    }

    #[test]
    fn category_allow_list_suppresses_the_whole_band() {
        struct Emit;
        impl Pass for Emit {
            fn name(&self) -> &'static str {
                "emit"
            }
            fn description(&self) -> &'static str {
                "test pass"
            }
            fn codes(&self) -> &'static [Code] {
                &[
                    diagnostic::TSV_UNWRAPPED,
                    diagnostic::DATAFLOW_UNTESTABLE_BOUNDARY,
                ]
            }
            fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
                for code in self.codes() {
                    out.push(Diagnostic::new(
                        *code,
                        Location::artifact(&ctx.artifact),
                        "synthetic",
                    ));
                }
            }
        }
        let mut linter = Linter::new();
        linter.register(Box::new(Emit));
        // P33xx suppresses the coverage finding but not the dataflow one.
        let report = linter.allow_category("P33xx").run(&LintContext::new("x"));
        assert_eq!(report.suppressed, 1);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(
            report.diagnostics[0].code,
            diagnostic::DATAFLOW_UNTESTABLE_BOUNDARY
        );
        // P380x catches the dataflow band too.
        let mut linter = Linter::new();
        linter.register(Box::new(Emit));
        let report = linter
            .allow_category("P33xx")
            .allow_category("P380x")
            .run(&LintContext::new("x"));
        assert_eq!(report.suppressed, 2);
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    #[should_panic(expected = "malformed code category")]
    fn malformed_category_panics() {
        let _ = Linter::new().allow_category("P3x8x");
    }

    #[test]
    fn report_renders_and_serializes() {
        let report = LintReport {
            artifact: "die".into(),
            diagnostics: vec![Diagnostic::new(
                diagnostic::SCAN_MISSING_CELL,
                Location::item("die", "q3"),
                "missing",
            )],
            suppressed: 2,
            passes_run: vec!["scan-chain"],
        };
        let text = report.render();
        assert!(text.contains("P3201"));
        assert!(text.contains("1 error(s)"));
        let json = report.to_json();
        assert_eq!(json.get("errors").unwrap().as_u64(), Some(1));
        assert_eq!(json.get("suppressed").unwrap().as_u64(), Some(2));
        assert_eq!(json.get("diagnostics").unwrap().as_arr().unwrap().len(), 1);
    }
}
