//! Traced-run analysis: per-span-name self time, the per-node host-vs-
//! modeled table and the validated Chrome trace export.

use lowbit_trace::{chrome, flame, SpanKind, TraceCapture, Tracer, MAIN_TRACK};
use std::collections::BTreeMap;

/// Wall totals of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub wall_ns: u64,
    /// Summed duration minus the part covered by direct children, ns.
    pub self_ns: u64,
}

/// Self-time aggregation of a capture's wall spans.
///
/// With one engine thread the GEMM runs inline on the calling thread but
/// records onto its own `gemm worker [..)` track; those tracks are folded
/// into the main track so a `conv` span's children include its tiles.
pub fn self_times(cap: &TraceCapture) -> BTreeMap<String, NameTotals> {
    let track_of = |t: u32| -> u32 {
        match cap.tracks.get(t as usize) {
            Some(name) if name.starts_with("gemm worker") => MAIN_TRACK,
            _ => t,
        }
    };
    let mut by_track: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, s) in cap.spans.iter().enumerate() {
        if s.kind == SpanKind::Wall {
            by_track.entry(track_of(s.track)).or_default().push(i);
        }
    }
    let mut child_ns = vec![0u64; cap.spans.len()];
    for idx in by_track.values_mut() {
        // Parents first: earlier start, then longer duration.
        idx.sort_by_key(|&i| {
            (
                cap.spans[i].start_ns,
                std::cmp::Reverse(cap.spans[i].dur_ns),
            )
        });
        let mut stack: Vec<usize> = Vec::new();
        for &i in idx.iter() {
            let s = &cap.spans[i];
            while stack
                .last()
                .is_some_and(|&p| cap.spans[p].end_ns() <= s.start_ns)
            {
                stack.pop();
            }
            if let Some(&p) = stack.last() {
                child_ns[p] += s.dur_ns;
            }
            stack.push(i);
        }
    }
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (i, s) in cap.spans.iter().enumerate() {
        if s.kind != SpanKind::Wall {
            continue;
        }
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.wall_ns += s.dur_ns;
        t.self_ns += s.dur_ns.saturating_sub(child_ns[i]);
    }
    out
}

/// Summed duration of the `kind` spans named `name`, in ms.
pub fn total_ms(cap: &TraceCapture, name: &str, kind: SpanKind) -> f64 {
    cap.spans
        .iter()
        .filter(|s| s.name == name && s.kind == kind)
        .map(|s| s.dur_ns as f64 / 1e6)
        .sum()
}

/// Host wall ms per plan node, from the executor's `layer` spans (labelled
/// `n<step> <node>: ...`).
pub fn node_wall_ms(cap: &TraceCapture) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for s in cap
        .spans
        .iter()
        .filter(|s| s.name == "layer" && s.kind == SpanKind::Wall)
    {
        let Some(label) = &s.label else { continue };
        let node = label.split(':').next().unwrap_or(label);
        let node = node.split_once(' ').map_or(node, |(_, n)| n);
        *out.entry(node.to_string()).or_insert(0.0) += s.dur_ns as f64 / 1e6;
    }
    out
}

/// The self-time table (rows of `flame::aggregate` with a self column),
/// per-unit times divided by `units` and scaled by `factor`.
pub fn self_time_table(cap: &TraceCapture, units: f64, factor: f64) -> String {
    let selfs = self_times(cap);
    let mut out = format!(
        "{:<22} {:>8} {:>12} {:>12} {:>14}\n",
        "span", "count", "wall_ms/run", "self_ms/run", "modeled_cyc"
    );
    for row in flame::aggregate(cap) {
        let s = selfs.get(&row.name).copied().unwrap_or_default();
        out.push_str(&format!(
            "{:<22} {:>8} {:>12.4} {:>12.4} {:>14.1}\n",
            row.name,
            row.count,
            row.wall_ns as f64 / 1e6 / units * factor,
            s.self_ns as f64 / 1e6 / units * factor,
            row.attr.modeled_cycles / units,
        ));
    }
    out
}

/// The start of a traced phase that goes into the Chrome trace export.
///
/// `validate_chrome_trace` takes time quadratic in the document length (its
/// JSON string scanner re-checks the UTF-8 of the whole remaining input per
/// character), so a full traced phase cannot be validated within a run;
/// the export holds the spans recorded before the mark instead.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Tracks registered before the mark (ids below this).
    tracks: u32,
    /// Tracer time of the mark.
    cutoff_ns: u64,
}

impl Window {
    /// Marks the end of the exported window now.
    pub fn mark(tracer: &Tracer) -> Window {
        Window {
            tracks: tracer.track("bench/export window end"),
            cutoff_ns: tracer.now_ns(),
        }
    }

    /// The part of `cap` recorded before the mark: wall spans and counters
    /// that started before it, and modeled spans (whose coordinates may be
    /// synthetic) on tracks registered before it.
    pub fn apply(&self, cap: &TraceCapture) -> TraceCapture {
        let before = |s: &lowbit_trace::SpanRecord| {
            s.track < self.tracks && (s.kind == SpanKind::Modeled || s.start_ns < self.cutoff_ns)
        };
        TraceCapture {
            tracks: cap
                .tracks
                .iter()
                .take(self.tracks as usize + 1)
                .cloned()
                .collect(),
            spans: cap.spans.iter().filter(|s| before(s)).cloned().collect(),
            counters: cap
                .counters
                .iter()
                .filter(|c| c.ts_ns < self.cutoff_ns)
                .cloned()
                .collect(),
            spans_dropped: cap.spans_dropped,
        }
    }
}

/// Exports `cap` as Chrome trace JSON to `path` after validating it.
/// Returns the number of span events written.
pub fn export_chrome(cap: &TraceCapture, path: &std::path::Path) -> Result<usize, String> {
    let text = chrome::chrome_trace_json(cap);
    let v = chrome::validate_chrome_trace(&text)?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(v.spans)
}
