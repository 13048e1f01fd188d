//! Command line of both binaries:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`.

use crate::spec::{DEFAULT_SEED, WORKLOADS};
use std::path::PathBuf;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where traces, run files and scratch stores go.
    pub out: PathBuf,
}

pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_driver_command_line() {
        let argv: Vec<String> = "--workload adhoc_mix --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse(&argv).unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("adhoc_mix", 7, 10.0, true)
        );
        assert!(parse(&argv[..7]).is_err());
        assert!(parse(&["--workload".into(), "nope".into()]).is_err());
    }
}
