//! The traced run: the `batch`, `edit` and `serve` paths on the same
//! seeded inputs as the timed runs, in process, with every layer timed
//! from outside through its public call. Where a layer sits behind one
//! public call (the driver's cache and merge inside `Driver::analyze`),
//! the run reads the `qual_obs` spans the program already records.
//!
//! Each path yields a table of layer rows plus a named remainder that
//! add up to the traced total, and the untraced end-to-end time of the
//! same request through the shipped binaries, so the difference between
//! the two shows the cost of tracing and of the process around it.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qual_constinfer::count::summarize;
use qual_constinfer::engine::run_budgeted;
use qual_constinfer::fdg::Fdg;
use qual_constinfer::{Budgets, Mode, Options};
use qual_incr::proto::{self, Frame};
use qual_incr::serve::{request_query, request_shutdown, request_stats};
use qual_incr::{Driver, IncrConfig, IncrOutcome};
use qual_lattice::QualSpace;
use qual_obs::{Json, Report};

use crate::corpus::{apply_edit, corpus, draw};
use crate::load::{analyze_req, connect, QUERY_STREAM, SERVE_EDIT_BASE};

/// What to trace, and where.
pub struct Plan {
    pub seed: u64,
    /// A third each goes to the `edit` and `serve` loops; `batch` is
    /// fixed work.
    pub seconds: u64,
    /// Directory holding the `cqual` and `cquald` binaries.
    pub bin: PathBuf,
    pub work: PathBuf,
    pub batch_lines: usize,
    pub edit_lines: usize,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn span_ms(r: &Report, name: &str) -> f64 {
    r.spans.get(name).map_or(0.0, |s| s.ns as f64 / 1e6)
}

fn span_count(r: &Report, name: &str) -> f64 {
    r.spans.get(name).map_or(0.0, |s| s.count as f64)
}

/// Metrics in output order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// One traced path: layer rows and a named remainder that sum to
/// `total_ms`, beside the untraced time of the same request.
struct Table {
    title: String,
    total_ms: f64,
    rows: Vec<(String, f64)>,
    remainder: String,
    untraced_ms: f64,
    untraced_what: String,
}

impl Table {
    fn new(title: &str, total_ms: f64, rows: Vec<(&str, f64)>, remainder: &str) -> Table {
        Table {
            title: title.to_owned(),
            total_ms,
            rows: rows.into_iter().map(|(n, v)| (n.to_owned(), v)).collect(),
            remainder: remainder.to_owned(),
            untraced_ms: 0.0,
            untraced_what: String::new(),
        }
    }

    fn remainder_ms(&self) -> f64 {
        self.total_ms - self.rows.iter().map(|r| r.1).sum::<f64>()
    }

    fn to_json(&self) -> Json {
        let mut rows: Vec<Json> = self
            .rows
            .iter()
            .map(|(n, v)| Json::Arr(vec![Json::Str(n.clone()), Json::Num(*v)]))
            .collect();
        rows.push(Json::Arr(vec![
            Json::Str(self.remainder.clone()),
            Json::Num(self.remainder_ms()),
        ]));
        Json::Obj(vec![
            ("title".into(), Json::Str(self.title.clone())),
            ("total_ms".into(), Json::Num(self.total_ms)),
            ("rows".into(), Json::Arr(rows)),
            ("untraced_ms".into(), Json::Num(self.untraced_ms)),
            (
                "untraced_what".into(),
                Json::Str(self.untraced_what.clone()),
            ),
        ])
    }
}

/// Wall time of one untraced `cqual` run through the shipped binary.
fn cqual_ms(bin: &Path, args: &[&str]) -> Result<f64, String> {
    let t = Instant::now();
    let out = Command::new(bin.join("cqual"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cqual: {e}"))?;
    let elapsed = ms(t.elapsed());
    if !out.success() {
        return Err(format!("cqual {args:?} exited with {out}"));
    }
    Ok(elapsed)
}

// ---------------------------------------------------------------------------
// batch: the classic pipeline, layer by layer
// ---------------------------------------------------------------------------

/// One classic analysis (`cqual FILE`'s path) timed per layer.
struct Classic {
    total: f64,
    parse: f64,
    sema: f64,
    cgen: f64,
    propagate: f64,
    verify: f64,
    fdg: f64,
    count: f64,
    items: usize,
    constraints: usize,
    qvars: usize,
    sccs: usize,
    positions: usize,
}

impl Classic {
    fn other(&self) -> f64 {
        self.total - (self.parse + self.sema + self.cgen + self.propagate + self.count)
    }
}

fn classic(path: &Path, mode: Mode) -> Result<Classic, String> {
    let space = QualSpace::const_only();
    let t0 = Instant::now();
    let src = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let parsed = qual_cfront::parse_with_recovery(&src);
    let parse = ms(t.elapsed());
    let t = Instant::now();
    let mut program = parsed.program;
    let rsema = qual_cfront::sema::analyze_with_recovery(&program);
    for (name, _) in &rsema.failed_functions {
        program.demote_to_proto(name);
    }
    for (name, _) in &rsema.failed_globals {
        program.drop_global_init(name);
    }
    let sema = ms(t.elapsed());
    if !parsed.errors.is_empty() || !rsema.failed_functions.is_empty() {
        return Err(format!("{}: front end reported errors", path.display()));
    }
    let t = Instant::now();
    let (analysis, skipped) = run_budgeted(
        &program,
        &rsema.sema,
        &space,
        mode,
        Options::default(),
        Budgets::default(),
    );
    let engine = ms(t.elapsed());
    if !skipped.is_empty() || analysis.solution.is_err() {
        return Err(format!(
            "{}: analysis did not come out clean",
            path.display()
        ));
    }
    let constraints = analysis.constraints.len();
    let qvars = analysis.supply.count();
    let t = Instant::now();
    let result = summarize(&program, analysis);
    let count = ms(t.elapsed());
    let total = ms(t0.elapsed());

    // Outside the traced window: split the engine into generation and
    // propagation by re-solving its output, and time the certifier and
    // the FDG on their own.
    let cs = &result.analysis.constraints;
    let t = Instant::now();
    let solution = cs
        .solve_with_budget(
            &space,
            &result.analysis.supply,
            Budgets::default().max_solver_steps,
        )
        .map_err(|e| format!("re-solve failed: {e:?}"))?;
    let propagate = ms(t.elapsed());
    let t = Instant::now();
    qual_solve::verify_solution(&space, cs.constraints(), &solution)
        .map_err(|e| format!("certification failed: {e:?}"))?;
    let verify = ms(t.elapsed());
    let t = Instant::now();
    let fdg = Fdg::build(&program);
    let fdg_ms = ms(t.elapsed());

    Ok(Classic {
        total,
        parse,
        sema,
        cgen: engine - propagate,
        propagate,
        verify,
        fdg: fdg_ms,
        count,
        items: program.items.len(),
        constraints,
        qvars,
        sccs: fdg.sccs.len(),
        positions: result.positions.len(),
    })
}

fn classic_metrics(m: &mut Metrics, prefix: &str, c: &Classic, with_fdg: bool) {
    m.put(format!("{prefix}.cfront.parse_ms"), c.parse, "ms");
    m.put(format!("{prefix}.cfront.sema_ms"), c.sema, "ms");
    m.put(format!("{prefix}.cfront.items"), c.items as f64, "count");
    m.put(format!("{prefix}.constinfer.cgen_ms"), c.cgen, "ms");
    m.put(
        format!("{prefix}.constinfer.cgen.constraints"),
        c.constraints as f64,
        "count",
    );
    m.put(
        format!("{prefix}.constinfer.cgen.qvars"),
        c.qvars as f64,
        "count",
    );
    if with_fdg {
        m.put(format!("{prefix}.constinfer.fdg_ms"), c.fdg, "ms");
        m.put(
            format!("{prefix}.constinfer.fdg.sccs"),
            c.sccs as f64,
            "count",
        );
    }
    m.put(format!("{prefix}.solve.propagate_ms"), c.propagate, "ms");
    m.put(format!("{prefix}.solve.verify_ms"), c.verify, "ms");
    m.put(format!("{prefix}.constinfer.count_ms"), c.count, "ms");
    m.put(
        format!("{prefix}.constinfer.positions"),
        c.positions as f64,
        "count",
    );
    m.put(format!("{prefix}.other_ms"), c.other(), "ms");
    m.put(format!("{prefix}.total_ms"), c.total, "ms");
}

fn classic_table(title: &str, c: &Classic) -> Table {
    Table::new(
        title,
        c.total,
        vec![
            ("cfront.parse", c.parse),
            ("cfront.sema", c.sema),
            ("constinfer.cgen (incl. fdg)", c.cgen),
            ("solve.propagate", c.propagate),
            ("constinfer.count", c.count),
        ],
        "other (read, demotion, drops)",
    )
}

// ---------------------------------------------------------------------------
// The incremental driver, read through its own spans
// ---------------------------------------------------------------------------

/// One `Driver::new` + `Driver::analyze`, with the spans it recorded.
struct DriverRun {
    open: f64,
    wall: f64,
    report: Report,
    outcome: IncrOutcome,
}

impl DriverRun {
    /// Layer rows of the driver; they lie on one timeline because the
    /// traced driver runs one job (spans of parallel workers would
    /// overlap and could not add up to the wall time).
    fn rows(&self) -> Vec<(&'static str, f64)> {
        let r = &self.report;
        vec![
            ("incr.session_open", self.open),
            ("cfront.parse", span_ms(r, "parse")),
            ("cfront.sema", span_ms(r, "sema")),
            ("constinfer.cgen", span_ms(r, "cgen-constraints")),
            ("solve.propagate", span_ms(r, "solve-propagate")),
            ("solve.verify", span_ms(r, "certify")),
            ("incr.cache.read", span_ms(r, "cache-read")),
            ("incr.cache.write", span_ms(r, "cache-write")),
            ("incr.merge", span_ms(r, "merge")),
        ]
    }

    fn total(&self) -> f64 {
        self.open + self.wall
    }

    fn other(&self) -> f64 {
        self.total() - self.rows().iter().map(|r| r.1).sum::<f64>()
    }
}

fn drive(cfg: &IncrConfig, src: &str) -> Result<DriverRun, String> {
    let t = Instant::now();
    let driver = Driver::new(cfg);
    let open = ms(t.elapsed());
    let t = Instant::now();
    let (outcome, report) = qual_obs::scoped(|| driver.analyze(src));
    let wall = ms(t.elapsed());
    if !outcome.is_clean() || !outcome.cache_diags.is_empty() {
        return Err("driver analysis did not come out clean".to_owned());
    }
    Ok(DriverRun {
        open,
        wall,
        report,
        outcome,
    })
}

/// Which driver pass a set of runs is; it decides which metrics mean
/// something (a run without a cache reuses nothing, a cold fill has no
/// certified reuse).
#[derive(Clone, Copy, PartialEq)]
enum Pass {
    NoCache,
    Fill,
    Rerun,
}

/// Means over driver runs as `<prefix>.*` metrics.
fn driver_metrics(m: &mut Metrics, prefix: &str, pass: Pass, runs: &[DriverRun], cache_bytes: u64) {
    let n = runs.len() as f64;
    let mean = |f: &dyn Fn(&DriverRun) -> f64| runs.iter().map(f).sum::<f64>() / n;
    let span = |name: &'static str| mean(&|r| span_ms(&r.report, name));
    if pass != Pass::NoCache {
        m.put(
            format!("{prefix}.incr.session_open_ms"),
            mean(&|r| r.open),
            "ms",
        );
    }
    m.put(format!("{prefix}.incr.driver_ms"), mean(&|r| r.wall), "ms");
    m.put(format!("{prefix}.cfront.parse_ms"), span("parse"), "ms");
    m.put(format!("{prefix}.cfront.sema_ms"), span("sema"), "ms");
    m.put(
        format!("{prefix}.constinfer.cgen_ms"),
        span("cgen-constraints"),
        "ms",
    );
    m.put(
        format!("{prefix}.solve.propagate_ms"),
        span("solve-propagate"),
        "ms",
    );
    m.put(format!("{prefix}.incr.merge_ms"), span("merge"), "ms");
    m.put(
        format!("{prefix}.incr.other_ms"),
        mean(&|r| r.other()),
        "ms",
    );
    let units = mean(&|r| r.outcome.stats.units as f64);
    m.put(format!("{prefix}.incr.units"), units, "count");
    m.put(
        format!("{prefix}.incr.analyzed"),
        mean(&|r| r.outcome.stats.analyzed as f64),
        "count",
    );
    if pass == Pass::Rerun {
        // Reuse is certified: every reused unit is re-verified.
        m.put(format!("{prefix}.solve.verify_ms"), span("certify"), "ms");
        let reused = mean(&|r| r.outcome.stats.reused as f64);
        m.put(format!("{prefix}.incr.reused"), reused, "count");
        m.put(format!("{prefix}.incr.hit_ratio"), reused / units, "ratio");
    }
    if pass != Pass::NoCache {
        m.put(
            format!("{prefix}.incr.cache.read_ms"),
            span("cache-read"),
            "ms",
        );
        m.put(
            format!("{prefix}.incr.cache.write_ms"),
            span("cache-write"),
            "ms",
        );
        // Entries written by a fill, entries read by a rerun.
        let files = if pass == Pass::Fill {
            "cache-write"
        } else {
            "cache-read"
        };
        m.put(
            format!("{prefix}.incr.cache.files"),
            mean(&|r| span_count(&r.report, files)),
            "count",
        );
        m.put(
            format!("{prefix}.incr.cache.bytes"),
            cache_bytes as f64,
            "bytes",
        );
        m.put(
            format!("{prefix}.incr.cache.retries"),
            mean(&|r| r.outcome.stats.retries as f64),
            "count",
        );
    }
    m.put(format!("{prefix}.total_ms"), mean(&|r| r.total()), "ms");
}

fn driver_table(title: &str, runs: &[DriverRun]) -> Table {
    let n = runs.len() as f64;
    let names: Vec<&str> = runs[0].rows().iter().map(|r| r.0).collect();
    let rows = names
        .iter()
        .enumerate()
        .map(|(i, name)| (*name, runs.iter().map(|r| r.rows()[i].1).sum::<f64>() / n))
        .collect();
    let total = runs.iter().map(DriverRun::total).sum::<f64>() / n;
    Table::new(
        title,
        total,
        rows,
        "incr.other (planning, keys, scheduling, unit bookkeeping)",
    )
}

/// Bytes of the cache entries in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// serve: one request through the transport, timed from the client
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Trip {
    connect: f64,
    write: f64,
    wait: f64,
    total: f64,
}

/// One request the way the public client sends it, split at the
/// transport's boundaries: connect, request written, reply read.
fn traced_roundtrip(socket: &Path, frame: impl FnOnce() -> Frame) -> Result<(Trip, Frame), String> {
    let t0 = Instant::now();
    let frame = frame();
    let t = Instant::now();
    let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    let connect = ms(t.elapsed());
    let t = Instant::now();
    proto::write_frame(&mut &stream, &frame).map_err(|e| format!("write: {e}"))?;
    let write = ms(t.elapsed());
    let t = Instant::now();
    let reply = proto::read_frame(&mut &stream).map_err(|e| format!("read: {e}"))?;
    let wait = ms(t.elapsed());
    let total = ms(t0.elapsed());
    Ok((
        Trip {
            connect,
            write,
            wait,
            total,
        },
        reply,
    ))
}

fn trip_metrics(m: &mut Metrics, prefix: &str, trips: &[Trip]) -> Table {
    let n = trips.len().max(1) as f64;
    let mean = |f: fn(&Trip) -> f64| trips.iter().map(f).sum::<f64>() / n;
    let t = Table::new(
        prefix,
        mean(|t| t.total),
        vec![
            ("serve.connect", mean(|t| t.connect)),
            ("serve.write", mean(|t| t.write)),
            ("serve.wait (daemon)", mean(|t| t.wait)),
        ],
        "client other (request build, decode)",
    );
    m.put(format!("{prefix}.connect_ms"), t.rows[0].1, "ms");
    m.put(format!("{prefix}.write_ms"), t.rows[1].1, "ms");
    m.put(format!("{prefix}.wait_ms"), t.rows[2].1, "ms");
    m.put(format!("{prefix}.other_ms"), t.remainder_ms(), "ms");
    m.put(format!("{prefix}.total_ms"), t.total_ms, "ms");
    t
}

/// A daemon that is shut down (and reaped) when dropped.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(bin: &Path, socket: PathBuf, cache: &Path) -> Result<Daemon, String> {
        let child = Command::new(bin.join("cquald"))
            .arg("--socket")
            .arg(&socket)
            .arg("--cache-dir")
            .arg(cache)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start cquald: {e}"))?;
        let d = Daemon { child, socket };
        let t = Instant::now();
        while request_stats(&connect(&d.socket)).is_err() {
            if t.elapsed() > Duration::from_secs(30) {
                return Err("cquald did not come up within 30 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(d)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = request_shutdown(&connect(&self.socket));
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

fn slope(full: f64, half: f64, lines_full: f64, lines_half: f64) -> f64 {
    (full / half).ln() / (lines_full / lines_half).ln()
}

fn line_count(s: &str) -> f64 {
    s.bytes().filter(|&b| b == b'\n').count() as f64
}

fn batch(plan: &Plan, m: &mut Metrics, tables: &mut Vec<Table>) -> Result<(), String> {
    let full_src = corpus(plan.batch_lines, plan.seed);
    let half_src = corpus(plan.batch_lines / 2, plan.seed);
    let full = plan.work.join("trace_batch.c");
    let half = plan.work.join("trace_half.c");
    std::fs::write(&full, &full_src).map_err(|e| e.to_string())?;
    std::fs::write(&half, &half_src).map_err(|e| e.to_string())?;
    let file = full.to_str().ok_or("non-UTF-8 work path")?;

    let poly = classic(&full, Mode::Polymorphic)?;
    let mono = classic(&full, Mode::Monomorphic)?;
    let halfp = classic(&half, Mode::Polymorphic)?;
    classic_metrics(m, "poly", &poly, true);
    classic_metrics(m, "mono", &mono, false);

    let cfg = IncrConfig {
        jobs: 1,
        ..IncrConfig::default()
    };
    let jobs2 = drive(&cfg, &full_src)?;
    let parsed = qual_cfront::parse_with_recovery(&full_src).program;
    let t = Instant::now();
    let fdg = Fdg::build(&parsed);
    m.put("jobs2.constinfer.fdg_ms", ms(t.elapsed()), "ms");
    m.put("jobs2.constinfer.fdg.sccs", fdg.sccs.len() as f64, "count");
    driver_metrics(m, "jobs2", Pass::NoCache, std::slice::from_ref(&jobs2), 0);

    let (lf, lh) = (line_count(&full_src), line_count(&half_src));
    m.put(
        "cfront.parse.slope",
        slope(poly.parse, halfp.parse, lf, lh),
        "ratio",
    );
    m.put(
        "cfront.sema.slope",
        slope(poly.sema, halfp.sema, lf, lh),
        "ratio",
    );
    m.put(
        "constinfer.cgen.slope",
        slope(poly.cgen, halfp.cgen, lf, lh),
        "ratio",
    );
    m.put(
        "solve.propagate.slope",
        slope(poly.propagate, halfp.propagate, lf, lh),
        "ratio",
    );

    let untraced = |args: &[&str]| -> Result<f64, String> {
        let mut v = (0..3)
            .map(|_| cqual_ms(&plan.bin, args))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(median(&mut v))
    };
    let poly_e2e = untraced(&[file])?;
    let mono_e2e = untraced(&["--mode", "mono", file])?;
    let jobs2_e2e = untraced(&["--jobs", "2", file])?;
    // Everything the in-process layers do not cover: exec, allocator
    // set-up, report rendering and printing.
    m.put(
        "cqual.other_ms",
        poly_e2e - (poly.total - poly.other()),
        "ms",
    );
    m.put("poly.trace_overhead", poly.total / poly_e2e, "ratio");
    m.put("mono.trace_overhead", mono.total / mono_e2e, "ratio");
    m.put("jobs2.trace_overhead", jobs2.total() / jobs2_e2e, "ratio");

    for (title, c, e2e, what) in [
        (
            "batch poly (classic)",
            &poly,
            poly_e2e,
            "cqual FILE, median of 3",
        ),
        (
            "batch mono (classic)",
            &mono,
            mono_e2e,
            "cqual --mode mono FILE, median of 3",
        ),
    ] {
        let mut t = classic_table(title, c);
        t.untraced_ms = e2e;
        t.untraced_what = what.to_owned();
        tables.push(t);
    }
    let mut t = driver_table(
        "batch jobs2 (driver, traced with 1 job)",
        std::slice::from_ref(&jobs2),
    );
    t.untraced_ms = jobs2_e2e;
    t.untraced_what = "cqual --jobs 2 FILE, median of 3".to_owned();
    tables.push(t);
    Ok(())
}

fn edit(plan: &Plan, seconds: f64, m: &mut Metrics, tables: &mut Vec<Table>) -> Result<(), String> {
    let mut src = corpus(plan.edit_lines, plan.seed);
    let cache = plan.work.join("trace_edit_cache");
    let cfg = IncrConfig {
        jobs: 1,
        cache_dir: Some(cache.clone()),
        ..IncrConfig::default()
    };
    let fill = drive(&cfg, &src)?;
    let fill_bytes = dir_bytes(&cache);
    driver_metrics(
        m,
        "fill",
        Pass::Fill,
        std::slice::from_ref(&fill),
        fill_bytes,
    );
    tables.push(driver_table(
        "edit cold fill (driver, traced with 1 job)",
        std::slice::from_ref(&fill),
    ));

    let mut reruns = Vec::new();
    let t0 = Instant::now();
    let mut i = 0;
    while reruns.len() < 3 || t0.elapsed().as_secs_f64() < seconds {
        src = apply_edit(&src, plan.seed, i).0;
        i += 1;
        reruns.push(drive(&cfg, &src)?);
    }
    driver_metrics(m, "edit", Pass::Rerun, &reruns, dir_bytes(&cache));

    // The same rerun untraced, through the binary.
    let file = plan.work.join("trace_edit.c");
    let mut untraced = Vec::new();
    for _ in 0..3 {
        src = apply_edit(&src, plan.seed, i).0;
        i += 1;
        std::fs::write(&file, &src).map_err(|e| e.to_string())?;
        let dir = cache.to_str().ok_or("non-UTF-8 work path")?;
        let f = file.to_str().ok_or("non-UTF-8 work path")?;
        untraced.push(cqual_ms(
            &plan.bin,
            &["--cache-dir", dir, "--jobs", "2", f],
        )?);
    }
    let mut t = driver_table(
        "edit rerun (driver, traced with 1 job; mean per rerun)",
        &reruns,
    );
    t.untraced_ms = median(&mut untraced);
    t.untraced_what = "cqual --cache-dir D --jobs 2 FILE, median of 3".to_owned();
    m.put("edit.trace_overhead", t.total_ms / t.untraced_ms, "ratio");
    tables.push(t);
    Ok(())
}

fn serve(
    plan: &Plan,
    seconds: f64,
    m: &mut Metrics,
    tables: &mut Vec<Table>,
) -> Result<(), String> {
    let mut src = corpus(plan.edit_lines, plan.seed);
    let socket = plan.work.join("trace.sock");
    let daemon = Daemon::start(
        &plan.bin,
        socket.clone(),
        &plan.work.join("trace_serve_cache"),
    )?;
    let conn = connect(&socket);
    let frame = qual_incr::serve::request_analyze(&conn, &analyze_req(src.clone()))
        .map_err(|e| e.to_string())?;
    let positions = frame.positions;

    let (mut query, mut memo, mut reanalyze) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut i = 0u64;
    while reanalyze.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        // The timed workload's mix: 16 queries, 3 memo hits, 1 edit.
        for _ in 0..16 {
            let p =
                &positions[(draw(plan.seed, QUERY_STREAM, i) % positions.len() as u64) as usize];
            i += 1;
            let (trip, reply) = traced_roundtrip(&socket, || Frame::QueryQual {
                function: p.function.clone(),
                param: p.param,
                level: p.level,
            })?;
            if !matches!(reply, Frame::QualReply { found: true, .. }) {
                return Err(format!("query {} was not answered", p.function));
            }
            query.push(trip);
        }
        for _ in 0..3 {
            let (trip, reply) = traced_roundtrip(&socket, || {
                Frame::Analyze(Box::new(analyze_req(src.clone())))
            })?;
            if !matches!(&reply, Frame::Report(r) if r.warm) {
                return Err("memo Analyze was not served warm".to_owned());
            }
            memo.push(trip);
        }
        src = apply_edit(&src, plan.seed, SERVE_EDIT_BASE + reanalyze.len() as u64).0;
        let (trip, reply) = traced_roundtrip(&socket, || {
            Frame::Reanalyze(Box::new(analyze_req(src.clone())))
        })?;
        if !matches!(reply, Frame::Report(_)) {
            return Err("Reanalyze did not return a report".to_owned());
        }
        reanalyze.push(trip);
    }

    let mut untraced: Vec<f64> = Vec::new();
    for p in positions.iter().take(32) {
        let t = Instant::now();
        request_query(&conn, &p.function, p.param, p.level).map_err(|e| e.to_string())?;
        untraced.push(ms(t.elapsed()));
    }
    let stats = request_stats(&conn).map_err(|e| e.to_string())?;
    drop(daemon);

    let mut tq = trip_metrics(m, "serve.query", &query);
    tq.untraced_ms = median(&mut untraced);
    tq.untraced_what = "request_query (median of 32)".to_owned();
    m.put(
        "serve.trace_overhead",
        tq.total_ms / tq.untraced_ms,
        "ratio",
    );
    tables.push(tq);
    tables.push(trip_metrics(m, "serve.memo", &memo));
    tables.push(trip_metrics(m, "serve.reanalyze", &reanalyze));
    for name in ["serve.requests", "serve.warm_hits", "serve.shed"] {
        let v = stats.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v);
        m.put(name, v as f64, "count");
    }
    Ok(())
}

/// Runs every path traced and returns `{metrics, units, tables}`.
pub fn run(plan: &Plan) -> Result<Json, String> {
    let mut m = Metrics::default();
    let mut tables = Vec::new();
    let loop_s = plan.seconds as f64 / 3.0;
    batch(plan, &mut m, &mut tables)?;
    edit(plan, loop_s, &mut m, &mut tables)?;
    serve(plan, loop_s, &mut m, &mut tables)?;
    Ok(Json::Obj(vec![
        (
            "metrics".into(),
            Json::Obj(
                m.0.iter()
                    .map(|(n, v, _)| (n.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "units".into(),
            Json::Obj(
                m.0.iter()
                    .map(|(n, _, u)| (n.clone(), Json::Str((*u).into())))
                    .collect(),
            ),
        ),
        (
            "tables".into(),
            Json::Arr(tables.iter().map(Table::to_json).collect()),
        ),
    ]))
}
