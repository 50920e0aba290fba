//! SARIF 2.1.0 rendering of findings, hand-rolled like the JSON report
//! (the workspace is dependency-free by design).
//!
//! The document carries one run with one rule per registered lint, so
//! GitHub code scanning groups findings by lint id and shows the lint's
//! one-line description next to each alert.

use crate::findings::{escape_into, Finding, ALL_LINTS};

/// The SARIF 2.1.0 schema URI GitHub code scanning expects.
const SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Renders findings as a SARIF 2.1.0 document.
pub fn to_sarif(findings: &[Finding]) -> String {
    let mut out = String::from("{\"$schema\":\"");
    out.push_str(SCHEMA);
    out.push_str("\",\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{");
    out.push_str("\"name\":\"vh-vet\",\"informationUri\":");
    out.push_str("\"https://github.com/\",\"rules\":[");
    for (i, lint) in ALL_LINTS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":\"");
        out.push_str(lint.id());
        out.push_str("\",\"shortDescription\":{\"text\":\"");
        escape_into(&mut out, lint.describe());
        out.push_str("\"},\"defaultConfiguration\":{\"level\":\"");
        out.push_str(lint.level());
        out.push_str("\"}}");
    }
    out.push_str("]}},\"results\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rule_index = ALL_LINTS
            .iter()
            .position(|l| *l == f.lint)
            .unwrap_or_default();
        out.push_str("{\"ruleId\":\"");
        out.push_str(f.lint.id());
        out.push_str("\",\"ruleIndex\":");
        out.push_str(&rule_index.to_string());
        out.push_str(",\"level\":\"");
        out.push_str(f.lint.level());
        out.push_str("\",\"message\":{\"text\":\"");
        escape_into(&mut out, &f.message);
        out.push_str("\"},\"locations\":[{\"physicalLocation\":{");
        out.push_str("\"artifactLocation\":{\"uri\":\"");
        escape_into(&mut out, &f.file);
        out.push_str("\"},\"region\":{\"startLine\":");
        out.push_str(&f.line.to_string());
        out.push_str("}}}]}");
    }
    out.push_str("]}]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findings::Lint;

    #[test]
    fn the_document_carries_every_rule_and_pins_locations() {
        let findings = vec![
            Finding {
                file: "crates/x/src/lib.rs".into(),
                line: 7,
                lint: Lint::LockOrder,
                message: "cycle \"a\" -> b".into(),
            },
            Finding {
                file: "src/lib.rs".into(),
                line: 3,
                lint: Lint::StaleAllow,
                message: "stale".into(),
            },
        ];
        let doc = to_sarif(&findings);
        assert!(doc.contains("sarif-2.1.0"));
        assert!(doc.contains("\"version\":\"2.1.0\""));
        for l in ALL_LINTS {
            assert!(
                doc.contains(&format!("{{\"id\":\"{}\"", l.id())),
                "{}",
                l.id()
            );
        }
        assert!(doc.contains("\"ruleId\":\"lock-order\""));
        assert!(doc.contains("cycle \\\"a\\\" -> b"));
        assert!(doc.contains("\"startLine\":7"));
        // stale-allow is warning level; lock-order is an error.
        assert!(doc.contains("\"ruleId\":\"stale-allow\",\"ruleIndex\":9,\"level\":\"warning\""));
        assert!(doc.contains("\"level\":\"error\""));
    }

    #[test]
    fn an_empty_run_is_still_a_valid_document() {
        let doc = to_sarif(&[]);
        assert!(doc.contains("\"results\":[]"));
        assert!(doc.ends_with("]}]}"));
    }
}
