//! Runs a shrunken instance of every workload through the benchmark and
//! checks that it prints every metric `BENCHMARK.json` names, with the
//! unit given there, and that the correctness gate trips on bad outcomes.

use hivemind_core::experiment::Experiment;
use hivemind_perfbench::adapter::{self, OutcomeCounts};
use hivemind_perfbench::{gate, run, Options, Size, Workload};

/// `(name, unit)` of every metric listed in one section of
/// `BENCHMARK.json` (`end_to_end` or `per_layer`). The file keeps one
/// metric object per line.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    text[start..]
        .lines()
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with(']'))
        .map(|l| (field(l, "name").unwrap(), field(l, "unit").unwrap()))
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: workload.default_seed(),
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    }
}

#[test]
fn every_workload_prints_every_listed_metric_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = listed(section);
        assert!(!want.is_empty(), "{section} lists metrics");
        for w in Workload::ALL {
            let report = run(tiny(w, trace));
            assert!(report.correct(), "{}: {:?}", w.name(), report.violations);
            let got: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{} {section}", w.name());
            let json = report.json();
            for (name, unit) in &want {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = json
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{name} missing"));
                let tail = &json[at..];
                let close = tail.find('}').expect("metric object closes");
                assert!(
                    tail[..close].ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{name} printed without unit {unit}"
                );
            }
            if !trace {
                for m in &report.metrics {
                    assert!(m.value > 0.0, "{} {} reads {}", w.name(), m.name, m.value);
                }
            }
            assert_eq!(report.spans.is_some(), trace);
        }
    }
}

#[test]
fn gate_trips_on_a_corrupted_digest_and_on_missing_tasks() {
    for w in Workload::ALL {
        let exp = Experiment::try_new(w.config(w.default_seed(), Size::Tiny)).unwrap();
        let arrivals = adapter::arrivals(exp.config()).len() as u64;
        let outcome = exp.run();
        let counts = OutcomeCounts::of(&outcome);
        let digest = adapter::digest(&outcome);
        assert_eq!(
            gate(w, arrivals, digest, digest, &counts),
            Vec::<String>::new()
        );
        assert_eq!(gate(w, arrivals, digest ^ 1, digest, &counts).len(), 1);
        if w.engine_driven() {
            assert_eq!(gate(w, arrivals + 1, digest, digest, &counts).len(), 1);
        } else {
            let unfinished = OutcomeCounts {
                mission_completed: false,
                ..counts
            };
            assert_eq!(gate(w, arrivals, digest, digest, &unfinished).len(), 1);
        }
    }
}
