//! `lsrp viz`: renders a structured trace file (DESIGN.md §16) into a
//! self-contained SVG/HTML visualization.
//!
//! Three views are built from the frame stream:
//!
//! - a **wave-propagation heatmap** over the topology layout — each node
//!   colored by its first-action time since the last fault (`wave`
//!   frames), so the stabilization wave's reach and speed are visible at
//!   a glance;
//! - **time series** over the run — peak queue depth (`q` frames),
//!   delivered fraction per bucket (`pkt` frames) and flow goodput
//!   (`flow` frames);
//! - a **route-flap strip chart** — one row per flappy node, a tick per
//!   route delta (`rt` frames), fault markers overlaid.
//!
//! Grid topologies (`grid:WxH` in the `hdr` frame) lay out on exact
//! grid coordinates; everything else falls back to a seeded
//! deterministic spring embedding, so the same trace always renders the
//! same bytes. The HTML output inlines every SVG — no external assets.

use std::io;
use std::path::Path;

use lsrp_trace::json::Json;
use lsrp_trace::reader::read_trace;

/// Pixel width of every rendered panel.
const PANEL_W: f64 = 800.0;
/// Pixel height of the heatmap panel.
const HEAT_H: f64 = 560.0;
/// Pixel height of each time-series panel.
const SERIES_H: f64 = 160.0;
/// Number of time buckets for the series panels.
const BUCKETS: usize = 120;
/// Maximum rows in the route-flap strip chart.
const FLAP_ROWS: usize = 40;

/// Everything the renderer needs, decoded from the frame stream.
#[derive(Debug, Default)]
struct Model {
    seed: u64,
    topology: Option<String>,
    nodes: Vec<u32>,
    edges: Vec<(u32, u32)>,
    /// Latest `dt` (first-action delay since fault) per node id.
    wave_dt: Vec<Option<f64>>,
    /// `(t, node)` route-delta events.
    route_events: Vec<(f64, u32)>,
    /// `(t, occupancy)` queue samples (max folded per bucket later).
    queue: Vec<(f64, f64)>,
    /// `(t, delivered)` packet fates.
    packets: Vec<(f64, bool)>,
    /// `(finish t, goodput)` completed flows.
    flows: Vec<(f64, f64)>,
    /// `(t, kind)` fault/phase markers.
    marks: Vec<(f64, String)>,
    /// Greatest timestamp seen (the `end` frame when present).
    t_end: f64,
    /// The `end` frame's message tally, rendered in the summary.
    msgs: Option<(u64, u64)>,
}

fn num(frame: &Json, key: &str) -> Option<f64> {
    frame.get(key)?.as_f64()
}

impl Model {
    fn from_frames(frames: &[Json]) -> Result<Model, String> {
        let mut m = Model::default();
        let hdr = frames
            .first()
            .filter(|f| lsrp_trace::reader::kind(f) == Some("hdr"))
            .ok_or("not a trace file (missing hdr frame)")?;
        let v = num(hdr, "v").unwrap_or(0.0) as u64;
        if v > u64::from(lsrp_trace::SCHEMA_VERSION) {
            return Err(format!(
                "trace schema v{v} is newer than this viz (v{})",
                lsrp_trace::SCHEMA_VERSION
            ));
        }
        m.seed = hdr.get("seed").and_then(Json::as_u64).unwrap_or(0);
        m.topology = hdr.get("topology").and_then(Json::as_str).map(String::from);
        for f in frames {
            let t = num(f, "t").unwrap_or(0.0);
            m.t_end = m.t_end.max(t);
            match lsrp_trace::reader::kind(f) {
                Some("topo") => {
                    if let Some(ns) = f.get("nodes").and_then(Json::as_arr) {
                        m.nodes
                            .extend(ns.iter().filter_map(|n| n.as_u64()).map(|n| n as u32));
                    }
                    if let Some(es) = f.get("edges").and_then(Json::as_arr) {
                        for e in es {
                            if let Some([a, b, _w]) = e.as_arr().and_then(|e| e.get(..3)) {
                                if let (Some(a), Some(b)) = (a.as_u64(), b.as_u64()) {
                                    m.edges.push((a as u32, b as u32));
                                }
                            }
                        }
                    }
                }
                Some("wave") => {
                    if let (Some(n), Some(dt)) = (f.get("n").and_then(Json::as_u64), num(f, "dt")) {
                        let idx = n as usize;
                        if idx >= m.wave_dt.len() {
                            m.wave_dt.resize(idx + 1, None);
                        }
                        m.wave_dt[idx] = Some(dt);
                    }
                }
                Some("rt") => {
                    if let Some(n) = f.get("n").and_then(Json::as_u64) {
                        m.route_events.push((t, n as u32));
                    }
                }
                Some("q") => {
                    if let Some(occ) = num(f, "occ") {
                        m.queue.push((t, occ));
                    }
                }
                Some("pkt") => {
                    let delivered = f.get("fate").and_then(Json::as_str) == Some("delivered");
                    m.packets.push((t, delivered));
                }
                Some("flow") => {
                    if let Some(g) = num(f, "goodput") {
                        m.flows.push((t, g));
                    }
                }
                Some("mark") => {
                    if let Some(kind) = f.get("kind").and_then(Json::as_str) {
                        m.marks.push((t, kind.to_string()));
                    }
                }
                Some("end") => {
                    let msgs = f.get("msgs");
                    let sent = msgs.and_then(|x| x.get("sent")).and_then(Json::as_u64);
                    let delivered = msgs.and_then(|x| x.get("delivered")).and_then(Json::as_u64);
                    if let (Some(s), Some(d)) = (sent, delivered) {
                        m.msgs = Some((s, d));
                    }
                }
                _ => {}
            }
        }
        if m.nodes.is_empty() {
            return Err("trace has no topo frames (node list missing)".to_string());
        }
        Ok(m)
    }
}

// ---------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------

/// `(x, y)` in [0, 1]² per node id (sparse ids map through position).
fn layout(m: &Model) -> Vec<(f64, f64)> {
    if let Some((w, h)) = m.topology.as_deref().and_then(grid_dims) {
        let (w, h) = (f64::from(w), f64::from(h));
        return m
            .nodes
            .iter()
            .map(|&n| {
                let x = f64::from(n) % w;
                let y = (f64::from(n) / w).floor();
                ((x + 0.5) / w, (y + 0.5) / h.max(1.0))
            })
            .collect();
    }
    spring_layout(m)
}

/// Parses `grid:WxH` out of a topology label.
fn grid_dims(label: &str) -> Option<(u32, u32)> {
    let rest = label.strip_prefix("grid:")?;
    let (w, h) = rest.split_once('x')?;
    Some((w.parse().ok()?, h.parse().ok()?))
}

/// Deterministic seeded spring embedding: LCG-random initial positions,
/// then edge attraction toward unit length plus a weak centering pull.
/// Good enough to make clusters and waves legible on non-grid graphs,
/// and byte-stable because nothing here consults a clock or OS RNG.
fn spring_layout(m: &Model) -> Vec<(f64, f64)> {
    let n = m.nodes.len();
    let index: std::collections::HashMap<u32, usize> =
        m.nodes.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut rng = m.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = || {
        rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (rng >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut pos: Vec<(f64, f64)> = (0..n).map(|_| (next(), next())).collect();
    let edges: Vec<(usize, usize)> = m
        .edges
        .iter()
        .filter_map(|&(a, b)| Some((*index.get(&a)?, *index.get(&b)?)))
        .collect();
    // Iteration count shrinks with size so internet-scale traces still
    // render in seconds; the coarse shape settles in the first rounds.
    let rounds = if n > 20_000 { 10 } else { 60 };
    let ideal = 1.0 / (n as f64).sqrt().max(1.0);
    for round in 0..rounds {
        let step = 0.1 * (1.0 - round as f64 / rounds as f64);
        let mut force = vec![(0.0f64, 0.0f64); n];
        for &(a, b) in &edges {
            let dx = pos[b].0 - pos[a].0;
            let dy = pos[b].1 - pos[a].1;
            let d = (dx * dx + dy * dy).sqrt().max(1e-6);
            let f = (d - ideal) / d;
            force[a].0 += f * dx;
            force[a].1 += f * dy;
            force[b].0 -= f * dx;
            force[b].1 -= f * dy;
        }
        for i in 0..n {
            let cx = 0.5 - pos[i].0;
            let cy = 0.5 - pos[i].1;
            pos[i].0 += step * (force[i].0 + 0.05 * cx);
            pos[i].1 += step * (force[i].1 + 0.05 * cy);
        }
    }
    // Normalize into [0, 1]² with a small margin.
    let (mut lo_x, mut hi_x, mut lo_y, mut hi_y) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in &pos {
        lo_x = lo_x.min(x);
        hi_x = hi_x.max(x);
        lo_y = lo_y.min(y);
        hi_y = hi_y.max(y);
    }
    let sx = (hi_x - lo_x).max(1e-9);
    let sy = (hi_y - lo_y).max(1e-9);
    pos.iter()
        .map(|&(x, y)| (0.04 + 0.92 * (x - lo_x) / sx, 0.04 + 0.92 * (y - lo_y) / sy))
        .collect()
}

// ---------------------------------------------------------------------
// SVG panels
// ---------------------------------------------------------------------

fn fmt(v: f64) -> String {
    // Two decimals is plenty for pixel coordinates and keeps files small.
    let s = format!("{v:.2}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// Blue (fast, dt = 0) → red (slow, dt = max) heat color.
fn heat_color(frac: f64) -> String {
    let frac = frac.clamp(0.0, 1.0);
    let r = (40.0 + 215.0 * frac) as u32;
    let g = (70.0 + 60.0 * (1.0 - frac)) as u32;
    let b = (220.0 * (1.0 - frac) + 35.0) as u32;
    format!("#{r:02x}{g:02x}{b:02x}")
}

/// The wave-propagation heatmap over the topology layout.
fn wave_heatmap(m: &Model) -> String {
    let pos = layout(m);
    let max_dt = m
        .wave_dt
        .iter()
        .flatten()
        .fold(0.0f64, |a, &b| a.max(b))
        .max(1e-9);
    let r = (PANEL_W / (m.nodes.len() as f64).sqrt() / 3.0).clamp(1.0, 9.0);
    let mut s = format!(
        "<svg class=\"wave-heatmap\" xmlns=\"http://www.w3.org/2000/svg\" \
         viewBox=\"0 0 {PANEL_W} {HEAT_H}\" width=\"{PANEL_W}\" height=\"{HEAT_H}\">\n"
    );
    s.push_str("<rect width=\"100%\" height=\"100%\" fill=\"#fdfdfd\"/>\n");
    let index: std::collections::HashMap<u32, usize> =
        m.nodes.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    // Edge underlay, skipped above 60k edges where it would be solid ink.
    if m.edges.len() <= 60_000 {
        s.push_str("<g stroke=\"#cccccc\" stroke-width=\"0.6\">\n");
        for &(a, b) in &m.edges {
            if let (Some(&i), Some(&j)) = (index.get(&a), index.get(&b)) {
                let (x1, y1) = (pos[i].0 * PANEL_W, pos[i].1 * HEAT_H);
                let (x2, y2) = (pos[j].0 * PANEL_W, pos[j].1 * HEAT_H);
                s.push_str(&format!(
                    "<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\"/>\n",
                    fmt(x1),
                    fmt(y1),
                    fmt(x2),
                    fmt(y2)
                ));
            }
        }
        s.push_str("</g>\n");
    }
    s.push_str("<g class=\"wave-nodes\">\n");
    for (i, &id) in m.nodes.iter().enumerate() {
        let (x, y) = (pos[i].0 * PANEL_W, pos[i].1 * HEAT_H);
        let dt = m.wave_dt.get(id as usize).copied().flatten();
        let (fill, title) = match dt {
            Some(dt) => (
                heat_color(dt / max_dt),
                format!("node {id}: first action {} s after fault", fmt_time(dt)),
            ),
            None => ("#e8e8e8".to_string(), format!("node {id}: untouched")),
        };
        s.push_str(&format!(
            "<circle class=\"wave-node\" cx=\"{}\" cy=\"{}\" r=\"{}\" fill=\"{fill}\">\
             <title>{title}</title></circle>\n",
            fmt(x),
            fmt(y),
            fmt(r)
        ));
    }
    s.push_str("</g>\n");
    // Color legend.
    s.push_str(&format!(
        "<text x=\"8\" y=\"{}\" font-size=\"11\" fill=\"#444\">wave reach: blue = acted \
         immediately, red = {} s after fault, gray = untouched</text>\n",
        HEAT_H - 8.0,
        fmt_time(max_dt)
    ));
    s.push_str("</svg>\n");
    s
}

fn fmt_time(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.0}")
    } else {
        format!("{t:.2}")
    }
}

/// Folds `(t, value)` samples into per-bucket values over `[0, t_end]`.
fn bucketize(samples: &[(f64, f64)], t_end: f64, fold_max: bool) -> Vec<Option<f64>> {
    let mut out: Vec<Option<f64>> = vec![None; BUCKETS];
    let mut counts = vec![0u64; BUCKETS];
    let span = t_end.max(1e-9);
    for &(t, v) in samples {
        let i = (((t / span) * BUCKETS as f64) as usize).min(BUCKETS - 1);
        out[i] = Some(match out[i] {
            Some(prev) if fold_max => prev.max(v),
            Some(prev) => prev + v,
            None => v,
        });
        counts[i] += 1;
    }
    if !fold_max {
        for (slot, &c) in out.iter_mut().zip(&counts) {
            if let Some(v) = slot {
                *v /= c.max(1) as f64;
            }
        }
    }
    out
}

/// One time-series panel: a polyline over bucketed values, fault
/// markers as vertical dashes.
fn series_panel(
    class: &str,
    label: &str,
    values: &[Option<f64>],
    marks: &[(f64, String)],
    t_end: f64,
) -> String {
    let peak = values
        .iter()
        .flatten()
        .fold(0.0f64, |a, &b| a.max(b))
        .max(1e-9);
    let mut s = format!(
        "<svg class=\"{class}\" xmlns=\"http://www.w3.org/2000/svg\" \
         viewBox=\"0 0 {PANEL_W} {SERIES_H}\" width=\"{PANEL_W}\" height=\"{SERIES_H}\">\n"
    );
    s.push_str("<rect width=\"100%\" height=\"100%\" fill=\"#fdfdfd\"/>\n");
    let plot_h = SERIES_H - 24.0;
    for (t, kind) in marks {
        let x = (t / t_end.max(1e-9)) * PANEL_W;
        s.push_str(&format!(
            "<line class=\"fault-mark\" x1=\"{x}\" y1=\"0\" x2=\"{x}\" y2=\"{plot_h}\" \
             stroke=\"#cc4444\" stroke-width=\"0.7\" stroke-dasharray=\"3,3\">\
             <title>{kind} at t = {t}</title></line>\n",
            x = fmt(x),
            t = fmt_time(*t),
        ));
    }
    let mut points = String::new();
    for (i, v) in values.iter().enumerate() {
        if let Some(v) = v {
            let x = (i as f64 + 0.5) / BUCKETS as f64 * PANEL_W;
            let y = plot_h - (v / peak) * (plot_h - 8.0);
            if !points.is_empty() {
                points.push(' ');
            }
            points.push_str(&format!("{},{}", fmt(x), fmt(y)));
        }
    }
    s.push_str(&format!(
        "<polyline points=\"{points}\" fill=\"none\" stroke=\"#2a6fb0\" stroke-width=\"1.5\"/>\n"
    ));
    s.push_str(&format!(
        "<text x=\"8\" y=\"{}\" font-size=\"11\" fill=\"#444\">{label} — peak {}</text>\n",
        SERIES_H - 8.0,
        fmt_time(peak)
    ));
    s.push_str("</svg>\n");
    s
}

/// The route-flap strip chart: the flappiest nodes, one row each, a
/// tick per route delta.
fn flap_strip(m: &Model) -> String {
    let mut per_node: std::collections::BTreeMap<u32, Vec<f64>> = std::collections::BTreeMap::new();
    for &(t, n) in &m.route_events {
        per_node.entry(n).or_default().push(t);
    }
    let mut rows: Vec<(u32, Vec<f64>)> = per_node.into_iter().collect();
    // Most route deltas first; node id breaks ties so the pick is stable.
    rows.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
    rows.truncate(FLAP_ROWS);
    rows.sort_by_key(|(n, _)| *n);
    let row_h = 12.0;
    let h = (rows.len() as f64 * row_h + 24.0).max(48.0);
    let mut s = format!(
        "<svg class=\"flap-strip\" xmlns=\"http://www.w3.org/2000/svg\" \
         viewBox=\"0 0 {PANEL_W} {h}\" width=\"{PANEL_W}\" height=\"{h}\">\n"
    );
    s.push_str("<rect width=\"100%\" height=\"100%\" fill=\"#fdfdfd\"/>\n");
    let span = m.t_end.max(1e-9);
    for (row, (node, times)) in rows.iter().enumerate() {
        let y = row as f64 * row_h + row_h / 2.0;
        s.push_str(&format!(
            "<text x=\"4\" y=\"{}\" font-size=\"8\" fill=\"#666\">{node}</text>\n",
            fmt(y + 3.0)
        ));
        s.push_str(&format!(
            "<g class=\"flap-row\" stroke=\"#444\" stroke-width=\"1\" \
             transform=\"translate(0,{})\">\n",
            fmt(y)
        ));
        for &t in times {
            let x = 36.0 + (t / span) * (PANEL_W - 44.0);
            s.push_str(&format!(
                "<line x1=\"{x}\" y1=\"-4\" x2=\"{x}\" y2=\"4\"/>\n",
                x = fmt(x)
            ));
        }
        s.push_str("</g>\n");
    }
    s.push_str(&format!(
        "<text x=\"8\" y=\"{}\" font-size=\"11\" fill=\"#444\">route flaps — {} deltas across \
         {} nodes (top {} rows shown)</text>\n",
        h - 8.0,
        m.route_events.len(),
        m.route_events
            .iter()
            .map(|(_, n)| n)
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        rows.len()
    ));
    s.push_str("</svg>\n");
    s
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Renders the wave heatmap alone (the `.svg` output path).
///
/// # Errors
///
/// Malformed traces surface as [`io::ErrorKind::InvalidData`].
pub fn render_svg(frames: &[Json]) -> Result<String, String> {
    let m = Model::from_frames(frames)?;
    Ok(wave_heatmap(&m))
}

/// Renders the full self-contained HTML page.
///
/// # Errors
///
/// Malformed traces surface as a description of the first problem.
pub fn render_html(frames: &[Json]) -> Result<String, String> {
    let m = Model::from_frames(frames)?;
    let mut page = String::new();
    page.push_str(
        "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n\
         <title>lsrp trace</title>\n<style>\n\
         body { font-family: sans-serif; max-width: 860px; margin: 24px auto; color: #222; }\n\
         h1 { font-size: 20px; } h2 { font-size: 15px; margin-top: 28px; }\n\
         svg { border: 1px solid #ddd; display: block; }\n\
         .meta { color: #666; font-size: 13px; }\n\
         </style>\n</head>\n<body>\n",
    );
    let topo = m.topology.as_deref().unwrap_or("unknown topology");
    page.push_str(&format!(
        "<h1>LSRP trace — {topo}</h1>\n<p class=\"meta\">{} nodes, {} edges, seed {}, \
         horizon {} s{}</p>\n",
        m.nodes.len(),
        m.edges.len(),
        m.seed,
        fmt_time(m.t_end),
        match m.msgs {
            Some((sent, delivered)) =>
                format!(", {sent} protocol messages sent / {delivered} delivered"),
            None => String::new(),
        }
    ));
    page.push_str("<h2>Stabilization wave</h2>\n");
    page.push_str(&wave_heatmap(&m));
    if !m.queue.is_empty() {
        page.push_str("<h2>Queue depth</h2>\n");
        let vals = bucketize(&m.queue, m.t_end, true);
        page.push_str(&series_panel(
            "queue-series",
            "peak queue occupancy per bucket",
            &vals,
            &m.marks,
            m.t_end,
        ));
    }
    if !m.packets.is_empty() {
        page.push_str("<h2>Availability</h2>\n");
        let samples: Vec<(f64, f64)> = m
            .packets
            .iter()
            .map(|&(t, ok)| (t, if ok { 1.0 } else { 0.0 }))
            .collect();
        let vals = bucketize(&samples, m.t_end, false);
        page.push_str(&series_panel(
            "availability-series",
            "delivered fraction per bucket",
            &vals,
            &m.marks,
            m.t_end,
        ));
    }
    if !m.flows.is_empty() {
        page.push_str("<h2>Goodput</h2>\n");
        let vals = bucketize(&m.flows, m.t_end, false);
        page.push_str(&series_panel(
            "goodput-series",
            "mean flow goodput by completion time",
            &vals,
            &m.marks,
            m.t_end,
        ));
    }
    if !m.route_events.is_empty() {
        page.push_str("<h2>Route flaps</h2>\n");
        page.push_str(&flap_strip(&m));
    }
    page.push_str("</body>\n</html>\n");
    Ok(page)
}

/// A malformed-trace error. It does not name the file: the caller holds
/// the path and prefixes it once, as it does for I/O and parse errors.
fn invalid(e: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Reads a trace file and renders the heatmap SVG.
///
/// # Errors
///
/// I/O errors pass through; malformed traces are `InvalidData`. Neither
/// names `path`.
pub fn render_svg_file(path: &str) -> io::Result<String> {
    let frames = read_trace(Path::new(path))?;
    render_svg(&frames).map_err(invalid)
}

/// Reads a trace file and renders the full HTML page.
///
/// # Errors
///
/// I/O errors pass through; malformed traces are `InvalidData`. Neither
/// names `path`.
pub fn render_html_file(path: &str) -> io::Result<String> {
    let frames = read_trace(Path::new(path))?;
    render_html(&frames).map_err(invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsrp_trace::json::parse;

    fn frames(lines: &[&str]) -> Vec<Json> {
        lines.iter().map(|l| parse(l).unwrap()).collect()
    }

    fn grid_frames() -> Vec<Json> {
        frames(&[
            r#"{"k":"hdr","schema":"lsrp-trace","v":1,"seed":7,"nodes":4,"edges":4,"topology":"grid:2x2","classes":["actions"],"snapshot_every":0}"#,
            r#"{"k":"topo","nodes":[0,1,2,3]}"#,
            r#"{"k":"topo","edges":[[0,1,1],[0,2,1],[1,3,1],[2,3,1]]}"#,
            r#"{"k":"mark","t":1,"kind":"corrupt","a":3,"b":null}"#,
            r#"{"k":"wave","t":2,"n":3,"epoch":1,"dt":1}"#,
            r#"{"k":"wave","t":3,"n":1,"epoch":1,"dt":2}"#,
            r#"{"k":"rt","t":2.5,"n":3,"d":2,"p":1,"c":0}"#,
            r#"{"k":"rt","t":2.75,"n":3,"up":false}"#,
            r#"{"k":"q","t":3,"a":0,"b":1,"occ":5,"drop":false}"#,
            r#"{"k":"pkt","t":4,"src":3,"dst":0,"fate":"delivered","hops":2,"w":1,"lat":0.5,"flow":null}"#,
            r#"{"k":"pkt","t":4.5,"src":3,"dst":0,"fate":"black_holed","at":1,"hops":1,"w":1,"lat":0.25,"flow":null}"#,
            r#"{"k":"flow","t":6,"id":0,"src":1,"dst":0,"segs":4,"acked":4,"w":1,"retx":0,"timeouts":0,"marks":0,"start":2,"goodput":1.5}"#,
            r#"{"k":"end","t":6,"seq":9,"msgs":{"sent":10,"delivered":9,"dropped_lossy":0,"dropped_dead":1,"duplicated":0},"tally":{"actions":2,"waves":2,"routes":2,"queues":1,"drops":0,"packets":2,"flows":1,"markers":1}}"#,
        ])
    }

    #[test]
    fn html_carries_every_panel() {
        let html = render_html(&grid_frames()).unwrap();
        for class in [
            "wave-heatmap",
            "queue-series",
            "availability-series",
            "goodput-series",
            "flap-strip",
        ] {
            assert!(html.contains(class), "missing {class}");
        }
        assert!(html.contains("grid:2x2"));
        assert!(html.contains("10 protocol messages sent / 9 delivered"));
        // Self-contained: no external references.
        assert!(!html.contains("http://") || html.contains("www.w3.org/2000/svg"));
        assert!(!html.contains("<script src"));
    }

    #[test]
    fn svg_output_is_the_heatmap_alone() {
        let svg = render_svg(&grid_frames()).unwrap();
        assert!(svg.starts_with("<svg class=\"wave-heatmap\""));
        assert_eq!(svg.matches("<svg").count(), 1);
        // All four nodes render; the corrupted node 3 is the hottest.
        assert_eq!(svg.matches("<circle class=\"wave-node\"").count(), 4);
        assert!(svg.contains("untouched"), "nodes 0 and 2 never acted");
    }

    #[test]
    fn grid_layout_uses_exact_coordinates() {
        let m = Model::from_frames(&grid_frames()).unwrap();
        let pos = layout(&m);
        assert_eq!(pos[0], (0.25, 0.25));
        assert_eq!(pos[3], (0.75, 0.75));
    }

    #[test]
    fn spring_layout_is_deterministic_and_bounded() {
        let mut lines = vec![
            r#"{"k":"hdr","schema":"lsrp-trace","v":1,"seed":3,"nodes":5,"edges":4,"topology":"ring:5","classes":[],"snapshot_every":0}"#.to_string(),
            r#"{"k":"topo","nodes":[0,1,2,3,4]}"#.to_string(),
            r#"{"k":"topo","edges":[[0,1,1],[1,2,1],[2,3,1],[3,4,1]]}"#.to_string(),
        ];
        lines.push(r#"{"k":"end","t":1,"seq":0,"msgs":{"sent":0,"delivered":0,"dropped_lossy":0,"dropped_dead":0,"duplicated":0},"tally":{"actions":0,"waves":0,"routes":0,"queues":0,"drops":0,"packets":0,"flows":0,"markers":0}}"#.to_string());
        let fs: Vec<Json> = lines.iter().map(|l| parse(l).unwrap()).collect();
        let m = Model::from_frames(&fs).unwrap();
        let a = layout(&m);
        let b = layout(&m);
        assert_eq!(a, b, "same trace, same embedding");
        for &(x, y) in &a {
            assert!((0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn rejects_non_traces_and_future_schemas() {
        assert!(render_html(&[]).is_err());
        let future = frames(&[
            r#"{"k":"hdr","schema":"lsrp-trace","v":99,"seed":0,"nodes":1,"edges":0,"topology":null,"classes":[],"snapshot_every":0}"#,
        ]);
        let err = render_html(&future).unwrap_err();
        assert!(err.contains("newer"), "{err}");
    }
}
