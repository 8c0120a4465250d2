//! The `serve` workload's load generator: one client in a closed loop
//! against a primed `cquald`, through the public `qual_incr::serve`
//! client calls. Each cycle of 20 requests holds 16 `QueryQual`, 3
//! memo-hit `Analyze` of the current source and 1 edit + `Reanalyze`,
//! in a seeded order, so every seed sees the same mix. Before each
//! cycle it times one run of the reference kernel, kept out of the
//! request timings; `run.py` scales the CPU-bound `Reanalyze` by it.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use qual_constinfer::{space_names, Mode, Position, PositionClass};
use qual_incr::proto::{AnalyzeReq, ReportFrame, PROTO_VERSION};
use qual_incr::serve::{
    class_from_tag, request_analyze, request_query, request_reanalyze, Connect,
};
use qual_lattice::QualSpace;
use qual_obs::Json;

use crate::corpus::{apply_edit, draw};

const MIX_STREAM: u64 = 2;
pub const QUERY_STREAM: u64 = 3;
/// Edits the `serve` workload applies start here, so they never repeat
/// the `edit` workload's script for the same seed.
pub const SERVE_EDIT_BASE: u64 = 1 << 32;

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Query,
    Memo,
    Reanalyze,
}

/// One cycle of the mix in the seed's order (Fisher–Yates).
fn cycle(seed: u64, n: u64) -> Vec<Op> {
    let mut ops = vec![Op::Query; 16];
    ops.extend([Op::Memo; 3]);
    ops.push(Op::Reanalyze);
    for i in (1..ops.len()).rev() {
        let j = (draw(seed, MIX_STREAM, n * 64 + i as u64) % (i as u64 + 1)) as usize;
        ops.swap(i, j);
    }
    ops
}

/// The client contract the workload measures: no retries, so a shed
/// request counts as failed instead of hiding in a backoff sleep.
pub fn connect(socket: &Path) -> Connect {
    Connect {
        retries: 0,
        ..Connect::new(socket.to_path_buf())
    }
}

/// The request `cqual --connect FILE` sends for a plain report.
pub fn analyze_req(src: String) -> AnalyzeReq {
    AnalyzeReq {
        version: PROTO_VERSION,
        src,
        mode: Mode::Polymorphic,
        quals: space_names(&QualSpace::const_only()),
        verify: false,
        deadline_ms: None,
    }
}

/// A served report rendered exactly as `cqual FILE` prints a const-only
/// report on stdout, so the two can be compared byte for byte.
pub fn render_frame(frame: &ReportFrame) -> String {
    let Some([total, declared, inferred]) = frame.counts else {
        return String::new();
    };
    let mut out = format!(
        "{total} interesting positions: {declared} declared const, {inferred} inferable const ({:?})\n",
        frame.mode
    );
    for p in &frame.positions {
        let class = class_from_tag(p.class).unwrap_or(PositionClass::Either);
        let label = Position {
            function: p.function.clone(),
            param: p.param.map(|i| i as usize),
            level: p.level as usize,
            declared: p.declared,
            class,
        }
        .label();
        let text = match class {
            PositionClass::MustConst => "must be const",
            PositionClass::MustNotConst => "cannot be const",
            PositionClass::Either => "could be const",
        };
        let mark = if p.declared { " [declared]" } else { "" };
        out.push_str(&format!("  {label:<32} {text}{mark}\n"));
    }
    out
}

/// Sends the first `Analyze` of `src` (a cold analysis that fills the
/// daemon's cache and memo) and returns the rendered report.
pub fn prime(socket: &Path, src: String) -> Result<String, String> {
    request_analyze(&connect(socket), &analyze_req(src))
        .map(|f| render_frame(&f))
        .map_err(|e| e.to_string())
}

fn ms_list(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())
}

/// Wall milliseconds of one run of the reference kernel at `calib`,
/// exec to exit.
fn calibrate(calib: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let status = Command::new(calib)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", calib.display()))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if !status.success() {
        return Err(format!("reference kernel exited {status}"));
    }
    Ok(ms)
}

/// Runs the closed loop for `seconds` and returns the per-request
/// latencies, the reference kernel's times, the failure tally and the
/// (source, served report) pairs `run.py` checks against `cqual`
/// afterwards.
pub fn run(
    socket: &Path,
    src: String,
    seed: u64,
    seconds: u64,
    work: &Path,
    calib: &Path,
) -> Result<Json, String> {
    let conn = connect(socket);
    let mut src = src;
    // The primed report: a memo hit that fixes the query positions.
    let mut frame = request_analyze(&conn, &analyze_req(src.clone())).map_err(|e| e.to_string())?;
    let mut text = render_frame(&frame);
    if frame.positions.is_empty() {
        return Err("primed report has no positions to query".to_owned());
    }

    let (mut query, mut memo, mut reanalyze) = (Vec::new(), Vec::new(), Vec::new());
    let mut calib_ms = Vec::new();
    let mut checks = Vec::new();
    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut queries = 0u64;
    let mut edits = 0u64;
    let t0 = Instant::now();
    let mut elapsed = 0.0;
    let mut n = 0u64;
    'run: loop {
        let t = Instant::now();
        calib_ms.push(calibrate(calib)?);
        // Request time only: the kernel runs are left out.
        elapsed -= t.elapsed().as_secs_f64();
        for op in cycle(seed, n) {
            if t0.elapsed().as_secs_f64() >= seconds as f64 {
                break 'run;
            }
            attempted += 1;
            match op {
                Op::Query => {
                    let p = &frame.positions[(draw(seed, QUERY_STREAM, queries)
                        % frame.positions.len() as u64)
                        as usize];
                    queries += 1;
                    let t = Instant::now();
                    let answer = request_query(&conn, &p.function, p.param, p.level);
                    query.push(t.elapsed().as_secs_f64() * 1e3);
                    match answer {
                        Ok(a) if !a.found => {
                            failures.push(format!("query {}: found=false", p.function))
                        }
                        Ok(a)
                            if class_from_tag(p.class) != Some(a.class)
                                || a.declared != p.declared =>
                        {
                            failures.push(format!(
                                "query {}: answer differs from the report",
                                p.function
                            ));
                        }
                        Ok(_) => {}
                        Err(e) => failures.push(format!("query: {e}")),
                    }
                }
                Op::Memo => {
                    let t = Instant::now();
                    let reply = request_analyze(&conn, &analyze_req(src.clone()));
                    memo.push(t.elapsed().as_secs_f64() * 1e3);
                    match reply {
                        Ok(f) if !f.warm => {
                            failures.push("memo Analyze was not served warm".to_owned())
                        }
                        Ok(f) if render_frame(&f) != text => {
                            failures.push(
                                "memo Analyze report differs from the current one".to_owned(),
                            );
                        }
                        Ok(_) => {}
                        Err(e) => failures.push(format!("memo Analyze: {e}")),
                    }
                }
                Op::Reanalyze => {
                    src = apply_edit(&src, seed, SERVE_EDIT_BASE + edits).0;
                    let t = Instant::now();
                    let reply = request_reanalyze(&conn, &analyze_req(src.clone()));
                    reanalyze.push(t.elapsed().as_secs_f64() * 1e3);
                    match reply {
                        Ok(f) => {
                            frame = f;
                            text = render_frame(&frame);
                            let base = work.join(format!("served_{edits:04}"));
                            let (c, r) = (base.with_extension("c"), base.with_extension("txt"));
                            std::fs::write(&c, &src).map_err(|e| e.to_string())?;
                            std::fs::write(&r, &text).map_err(|e| e.to_string())?;
                            checks.push(Json::Arr(vec![
                                Json::Str(c.display().to_string()),
                                Json::Str(r.display().to_string()),
                            ]));
                        }
                        Err(e) => failures.push(format!("Reanalyze: {e}")),
                    }
                    edits += 1;
                }
            }
        }
        n += 1;
    }
    elapsed += t0.elapsed().as_secs_f64();
    Ok(Json::Obj(vec![
        ("query_ms".into(), ms_list(&query)),
        ("memo_ms".into(), ms_list(&memo)),
        ("reanalyze_ms".into(), ms_list(&reanalyze)),
        ("calib_ms".into(), ms_list(&calib_ms)),
        ("elapsed_s".into(), Json::Num(elapsed)),
        ("attempted".into(), Json::num(attempted)),
        ("failed".into(), Json::num(failures.len() as u64)),
        (
            "failures".into(),
            Json::Arr(failures.iter().take(10).cloned().map(Json::Str).collect()),
        ),
        ("checks".into(), Json::Arr(checks)),
    ]))
}
