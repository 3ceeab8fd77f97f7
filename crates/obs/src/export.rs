//! Chrome-trace / Perfetto exporter for the span tree.
//!
//! `FOOTSTEPS_TRACE_OUT=<path>` makes [`crate::Recorder`] collect span
//! events and, at the end of the run, write them here as the Trace Event
//! JSON object format (`{"traceEvents": [...]}`), loadable in
//! `chrome://tracing` and Perfetto:
//!
//! * `B`/`E` duration events — one pair per span instance, on explicit
//!   thread lanes: `tid 0` is the serial coordinator, `tid k` is lane
//!   `k-1` of a region grafted with `attach_workers` (a study runs on one
//!   thread and attaches none; footbench's traced report run attaches
//!   each section's render interval as lane 0).
//!   Events come straight from the tree's append-order log, so per-lane
//!   timestamps are monotonic and `B`/`E` nest by construction;
//! * `C` counter events — headline metrics-registry counters sampled at
//!   each phase boundary, one counter track per name;
//! * `M` metadata events naming the process and every lane.
//!
//! [`validate_chrome_trace`] is the matching schema check, shared by the
//! unit tests, the determinism suite, and `obs-report --check-trace`
//! (which `scripts/ci.sh` runs on a real smoke trace).
//!
//! Timestamps are microseconds since the recorder's epoch; durations are
//! wall-clock and therefore quarantined from every deterministic artifact
//! — the trace file is a sidecar, never an input.

use std::io;
use std::path::Path;

use serde::Value;

use crate::tree::SpanTree;

/// Append a JSON-escaped string literal (the names we emit are plain
/// ASCII span names, but escape defensively).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render the span tree as a Chrome trace JSON document.
pub fn chrome_trace_json(tree: &SpanTree) -> String {
    let mut events: Vec<String> = Vec::with_capacity(tree.events().len() + 16);

    // Metadata first: process name plus one name per lane.
    let mut meta = String::new();
    meta.push_str(r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"footsteps-study"}}"#);
    events.push(meta);
    events.push(
        r#"{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"main"}}"#.to_string(),
    );
    for lane in 0..tree.max_worker_lanes() {
        events.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{},"args":{{"name":"worker-{lane}"}}}}"#,
            lane + 1
        ));
    }

    // Duration events, in the tree's append order (correct per lane by
    // construction — no sort).
    for ev in tree.events() {
        let mut e = String::with_capacity(96);
        e.push_str("{\"name\":");
        push_json_str(&mut e, tree.node_name(ev.node));
        e.push_str(&format!(
            ",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":0,\"tid\":{}}}",
            if ev.begin { 'B' } else { 'E' },
            ev.ts_secs * 1e6,
            ev.tid
        ));
        events.push(e);
    }

    // Counter samples from the phase boundaries, one track per counter.
    for sample in tree.counter_samples() {
        for (name, value) in &sample.counters {
            let mut e = String::with_capacity(96);
            e.push_str("{\"name\":");
            push_json_str(&mut e, name);
            e.push_str(&format!(
                ",\"ph\":\"C\",\"ts\":{:.3},\"pid\":0,\"tid\":0,\"args\":{{\"value\":{value}}}}}",
                sample.ts_secs * 1e6
            ));
            events.push(e);
        }
    }

    let mut out = String::with_capacity(events.iter().map(|e| e.len() + 6).sum::<usize>() + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str("  ");
        out.push_str(e);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Write the trace atomically ([`crate::atomic::write_atomic`]), the same
/// discipline the sweep checkpoints and manifest use.
pub fn write_chrome_trace(tree: &SpanTree, path: &Path) -> io::Result<()> {
    crate::atomic::write_atomic(path, chrome_trace_json(tree).as_bytes())
}

/// Stats from a validated trace file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// All events, metadata included.
    pub events: usize,
    /// Matched `B`/`E` pairs.
    pub pairs: usize,
    /// Distinct tids carrying duration events.
    pub lanes: usize,
    /// `C` counter events.
    pub counters: usize,
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Validate a Chrome trace document: parseable JSON with a `traceEvents`
/// array; every `B`/`E` matched per tid (same name, bracket-style);
/// per-tid timestamps monotone non-decreasing; `C`/`M` events well-formed.
pub fn validate_chrome_trace(src: &str) -> Result<TraceCheck, String> {
    let doc = serde_json::parse(src).map_err(|e| format!("invalid JSON: {}", e.0))?;
    let Some(Value::Seq(events)) = doc.get_field("traceEvents") else {
        return Err("missing traceEvents array".to_string());
    };

    let mut check = TraceCheck { events: events.len(), ..Default::default() };
    // Per-tid open-span stacks and timestamp high-water marks.
    let mut lanes: Vec<f64> = Vec::new();
    let mut stacks: Vec<(f64, Vec<String>)> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get_field("ph")
            .and_then(as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let name = ev
            .get_field("name")
            .and_then(as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        match ph {
            "M" => {}
            "C" => {
                check.counters += 1;
                ev.get_field("ts")
                    .and_then(as_f64)
                    .ok_or_else(|| format!("event {i}: counter without ts"))?;
                let args = ev
                    .get_field("args")
                    .ok_or_else(|| format!("event {i}: counter without args"))?;
                args.get_field("value")
                    .and_then(as_f64)
                    .ok_or_else(|| format!("event {i}: counter without args.value"))?;
            }
            "B" | "E" => {
                let ts = ev
                    .get_field("ts")
                    .and_then(as_f64)
                    .ok_or_else(|| format!("event {i}: duration event without ts"))?;
                let tid = ev
                    .get_field("tid")
                    .and_then(as_f64)
                    .ok_or_else(|| format!("event {i}: duration event without tid"))?;
                let li = match lanes.iter().position(|t| *t == tid) {
                    Some(i) => i,
                    None => {
                        lanes.push(tid);
                        stacks.push((f64::NEG_INFINITY, Vec::new()));
                        lanes.len() - 1
                    }
                };
                let (watermark, stack) = &mut stacks[li];
                if ts < *watermark {
                    return Err(format!(
                        "event {i}: ts {ts} went backwards on tid {tid} (watermark {watermark})"
                    ));
                }
                *watermark = ts;
                if ph == "B" {
                    stack.push(name.to_string());
                } else {
                    match stack.pop() {
                        Some(open) if open == name => check.pairs += 1,
                        Some(open) => {
                            return Err(format!(
                                "event {i}: E `{name}` does not match open B `{open}` on tid {tid}"
                            ));
                        }
                        None => {
                            return Err(format!("event {i}: E `{name}` without open B on tid {tid}"));
                        }
                    }
                }
            }
            other => return Err(format!("event {i}: unknown ph `{other}`")),
        }
    }
    for (tid, (_, stack)) in lanes.iter().zip(&stacks) {
        if let Some(open) = stack.last() {
            return Err(format!("unclosed B `{open}` on tid {tid}"));
        }
    }
    check.lanes = lanes.len();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::WorkerSpan;

    fn demo_tree() -> SpanTree {
        let mut t = SpanTree::new();
        t.enable_events();
        let phase = t.open("phase.characterization");
        let day = t.open("engine.step_day");
        t.record_leaf("aas.instalex.decision", 0.0001);
        let t0 = t.now_secs();
        t.attach_workers(
            "aas.instalex.apply.shard",
            t0,
            &[
                WorkerSpan { lane: 0, start_secs: 0.0, end_secs: 0.002 },
                WorkerSpan { lane: 1, start_secs: 0.0005, end_secs: 0.0025 },
            ],
        );
        t.close(day);
        t.close(phase);
        t.sample_counters(
            "characterization",
            vec![("platform.inbound.delivered".to_string(), 42)],
        );
        t
    }

    #[test]
    fn exported_trace_passes_the_schema_check() {
        let t = demo_tree();
        let json = chrome_trace_json(&t);
        let check = validate_chrome_trace(&json).expect("trace validates");
        // 2 main spans + 1 leaf + 2 worker lanes = 5 B/E pairs.
        assert_eq!(check.pairs, 5, "{json}");
        assert_eq!(check.lanes, 3, "tid 0 plus two worker lanes: {json}");
        assert_eq!(check.counters, 1);
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("worker-1"));
    }

    #[test]
    fn write_is_atomic_and_round_trips() {
        let t = demo_tree();
        let dir = std::env::temp_dir().join("footsteps_obs_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        write_chrome_trace(&t, &path).expect("trace writes");
        let body = std::fs::read_to_string(&path).unwrap();
        validate_chrome_trace(&body).expect("written trace validates");
        assert!(!crate::atomic::tmp_sibling(&path).exists(), "tmp file left behind");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validator_rejects_torn_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        // E without B.
        let bad = r#"{"traceEvents":[{"name":"x","ph":"E","ts":1.0,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("without open B"));
        // Mismatched pair.
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1.0,"pid":0,"tid":0},
            {"name":"b","ph":"E","ts":2.0,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("does not match"));
        // Backwards time.
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":5.0,"pid":0,"tid":0},
            {"name":"a","ph":"E","ts":1.0,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("backwards"));
        // Unclosed B.
        let bad = r#"{"traceEvents":[{"name":"a","ph":"B","ts":1.0,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("unclosed"));
    }

    #[test]
    fn names_are_escaped() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd");
        assert_eq!(s, r#""a\"b\\c\nd""#);
    }
}
