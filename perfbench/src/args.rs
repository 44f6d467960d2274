//! Command-line arguments shared by both benchmark binaries.

use std::path::PathBuf;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["lr-adult-analyst", "sqf-serve-stream", "forest-german"];

/// One benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
    /// Where the full result record (and spans) are written, if anywhere.
    pub out_dir: Option<PathBuf>,
}

/// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>
/// [--out-dir <dir>]`.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?} (expected one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(name);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                });
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
        out_dir,
    })
}

impl Args {
    /// The result record's path under `--out-dir`.
    pub fn record_path(&self, suffix: &str) -> Option<PathBuf> {
        self.out_dir.as_ref().map(|dir| {
            dir.join(format!(
                "{}-seed{}-trace{}{suffix}",
                self.workload,
                self.seed,
                u8::from(self.trace)
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_run_arguments() {
        let a = parse(&strings(&[
            "--workload",
            "forest-german",
            "--seed",
            "3",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(a.workload, "forest-german");
        assert_eq!(a.seed, 3);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        assert!(parse(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse(&strings(&["--bogus"])).is_err());
        assert!(parse(&strings(&["--workload", "forest-german", "--seconds", "1"])).is_err());
    }
}
