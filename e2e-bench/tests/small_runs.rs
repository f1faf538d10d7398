//! A scaled-down run of every workload, untraced and traced: every
//! correctness check runs and passes, no operation fails, every
//! end-to-end metric is measured and non-zero, and every per-layer
//! metric is reported.

use std::path::PathBuf;

use preserva_e2e_bench::workloads::{self, Options, Outcome, Scale, Workload};

fn small(workload: Workload, trace: bool) -> Outcome {
    let base = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work");
    let tag = format!("{}-{}-{}", workload.name(), trace as u8, std::process::id());
    let opts = Options {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        scale: Scale::small(),
        work_dir: base.join(&tag),
        trace_file: base.join(format!("{tag}.jsonl")),
    };
    let outcome = workloads::run(&opts).unwrap();
    assert!(!opts.work_dir.exists(), "scratch directory left behind");
    if trace {
        let spans = std::fs::read_to_string(&opts.trace_file).unwrap();
        assert!(spans.lines().any(|l| l.contains("\"name\":\"wfms.run\"")));
        std::fs::remove_file(&opts.trace_file).unwrap();
    }
    outcome
}

fn assert_whole(outcome: &Outcome) {
    for (name, c) in &outcome.checks {
        assert!(c.is_ok(), "check {name}: {c:?}");
    }
    assert!(
        outcome.unmeasured().is_empty(),
        "{:?}",
        outcome.unmeasured()
    );
    assert!(outcome.correct());
    assert_eq!(outcome.tally.failed(), 0, "{}", outcome.tally.render());
    for class in [
        "pipeline", "get", "search", "fuzzy", "facets", "scan", "history", "put", "reassess",
    ] {
        let c = &outcome.tally.classes[class];
        assert!(c.attempted > 0, "class {class} never ran");
    }
    for (name, value, _) in &outcome.end_to_end {
        assert!(*value > 0.0 && value.is_finite(), "{name} = {value}");
    }
}

fn run_both(workload: Workload) {
    let plain = small(workload, false);
    assert_whole(&plain);
    assert_eq!(plain.end_to_end.len(), 11);
    let traced = small(workload, true);
    assert_whole(&traced);
    assert_eq!(traced.per_layer.len(), 52);
    for name in [
        "core.ingest_s",
        "wfms.run_s",
        "search.index_s",
        "storage.snapshot_get_ms",
        "search.query_ms",
        "storage.scan_raw_ms",
        "curation.history_lookup_ms",
        "core.insert_ms",
        "search.fold_noop_ms",
    ] {
        let (_, v, _) = traced
            .per_layer
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap();
        assert!(*v > 0.0, "{name} = {v}");
    }
}

#[test]
fn serve_read_runs_whole() {
    run_both(Workload::ServeRead);
}

#[test]
fn edit_churn_runs_whole() {
    run_both(Workload::EditChurn);
}
