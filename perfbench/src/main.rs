//! Helpers for `perfbench/run.py`, the repository benchmark.
//!
//! ```text
//! perfbench gen   --lines N --seed S --out FILE
//! perfbench edit  --seed S --index I --src FILE --out FILE
//! perfbench prime --socket PATH --src FILE --out REPORT
//! perfbench load  --socket PATH --src FILE --seed S --seconds T --work DIR --out JSON
//!                 --calib PATH
//! perfbench trace --seed S --seconds T --batch-lines N --edit-lines M
//!                 --bin DIR --work DIR --out JSON
//! ```
//!
//! `gen` and `edit` write the seeded inputs; `prime` and `load` drive a
//! running `cquald` through the public `qual_incr::serve` client calls;
//! `trace` is the separate in-process traced run that yields the
//! per-layer metrics. The timed end-to-end runs go through the shipped
//! `cqual`/`cquald` binaries and are driven by `run.py`.

mod corpus;
mod load;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// `--key value` arguments after the subcommand.
struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = raw.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {k}"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_owned(), v.clone());
        }
        Ok(Args(map))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.str(key).map(PathBuf::from)
    }

    fn num(&self, key: &str) -> Result<u64, String> {
        self.str(key)?.parse().map_err(|e| format!("--{key}: {e}"))
    }
}

fn read(path: &PathBuf) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn write(path: &PathBuf, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run(cmd: &str, args: &Args) -> Result<(), String> {
    match cmd {
        "gen" => {
            let lines = usize::try_from(args.num("lines")?).map_err(|e| e.to_string())?;
            write(
                &args.path("out")?,
                &corpus::corpus(lines, args.num("seed")?),
            )
        }
        "edit" => {
            let src = read(&args.path("src")?)?;
            let (edited, function) =
                corpus::apply_edit(&src, args.num("seed")?, args.num("index")?);
            write(&args.path("out")?, &edited)?;
            println!("{function}");
            Ok(())
        }
        "prime" => {
            let src = read(&args.path("src")?)?;
            let frame = load::prime(&args.path("socket")?, src)?;
            write(&args.path("out")?, &frame)
        }
        "load" => {
            let doc = load::run(
                &args.path("socket")?,
                read(&args.path("src")?)?,
                args.num("seed")?,
                args.num("seconds")?,
                &args.path("work")?,
                &args.path("calib")?,
            )?;
            write(&args.path("out")?, &doc.render())
        }
        "trace" => {
            let doc = trace::run(&trace::Plan {
                seed: args.num("seed")?,
                seconds: args.num("seconds")?,
                bin: args.path("bin")?,
                work: args.path("work")?,
                batch_lines: usize::try_from(args.num("batch-lines")?)
                    .map_err(|e| e.to_string())?,
                edit_lines: usize::try_from(args.num("edit-lines")?).map_err(|e| e.to_string())?,
            })?;
            write(&args.path("out")?, &doc.render())
        }
        _ => Err(format!("unknown subcommand {cmd}")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("usage: perfbench gen|edit|prime|load|trace --key value ...");
        return ExitCode::from(2);
    };
    match Args::parse(rest).and_then(|args| run(cmd, &args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}
