//! A small, dependency-free command-line argument parser.
//!
//! Supports `gpmr <subcommand> [mode] [--key value]... [--flag]...`. Values
//! may also be given as `--key=value`. A subcommand accepts what its row of
//! the command table ([`crate::commands::COMMANDS`]) lists: an unknown key,
//! or a value outside the flag's declared [`Kind`], is an error before any
//! handler runs (catching typos beats silently ignoring them).

use std::collections::HashMap;
use std::ops::{Bound, RangeBounds};

use crate::commands::Command;

/// What a flag's value may be. Numeric kinds carry their range, so a value
/// that could overflow a size or index downstream never leaves the parser.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// Free text or a path; the handler gives it meaning.
    Text,
    /// An unsigned integer in `lo..=hi`.
    Uint(u64, u64),
    /// A finite float from the lower bound to below the upper one.
    Float(Bound<f64>, f64),
}

impl Kind {
    /// The accepted range as the error message and `gpmr help` print it;
    /// empty for the kinds without one.
    pub fn range(self) -> String {
        match self {
            Kind::Switch | Kind::Text => String::new(),
            Kind::Uint(lo, hi) => format!("{lo}..={hi}"),
            Kind::Float(Bound::Excluded(lo), hi) => format!("({lo}, {hi})"),
            Kind::Float(Bound::Included(lo), hi) => format!("[{lo}, {hi})"),
            Kind::Float(Bound::Unbounded, hi) => format!("(-inf, {hi})"),
        }
    }

    fn admits(self, value: &str) -> bool {
        match self {
            Kind::Switch | Kind::Text => true,
            Kind::Uint(lo, hi) => value.parse().is_ok_and(|v| (lo..=hi).contains(&v)),
            Kind::Float(lo, hi) => value
                .parse::<f64>()
                .is_ok_and(|v| v.is_finite() && (lo, Bound::Excluded(hi)).contains(&v)),
        }
    }
}

/// One flag: its name (without the `--`) and what its value may be.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Flag {
    /// The name, as typed after `--`.
    pub name: &'static str,
    /// The value's kind and range.
    pub kind: Kind,
}

/// Parsed command line: the options one command row accepted, each value
/// already checked against its flag's kind.
#[derive(Clone, Debug, Default)]
pub struct Args {
    options: HashMap<&'static str, String>,
}

/// Parse errors with the offending token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// `--key` without a value where one was expected.
    MissingValue(String),
    /// An option the command's row does not list.
    UnknownOption {
        /// Option name.
        key: String,
        /// The command, as typed after `gpmr`.
        command: String,
    },
    /// A value that is not a number in the flag's declared range.
    BadValue {
        /// Option name.
        key: String,
        /// Raw value.
        value: String,
        /// The range, as [`Kind::range`] prints it.
        range: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::UnknownOption { key, command } => {
                write!(f, "unknown option --{key} for `gpmr {command}`")
            }
            ArgError::BadValue { key, value, range } => {
                write!(f, "--{key} must be in {range}, not {value:?}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse the tokens after the subcommand (and its mode) against the
    /// command's row of the table.
    pub fn parse(tokens: &[String], row: &Command) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut it = tokens.iter();
        while let Some(tok) = it.next() {
            let body = tok.strip_prefix("--");
            let (key, inline) = match body.and_then(|body| body.split_once('=')) {
                Some((key, value)) => (key, Some(value)),
                None => (body.unwrap_or(tok), None),
            };
            let listed = row.flags().find(|f| body.is_some() && f.name == key);
            let flag = listed.ok_or_else(|| ArgError::UnknownOption {
                key: key.to_string(),
                command: format!("{} {}", row.name, row.mode).trim_end().to_string(),
            })?;
            let value = match (flag.kind, inline) {
                (Kind::Switch, _) => "",
                (_, Some(v)) => v,
                (_, None) => it
                    .next()
                    .ok_or_else(|| ArgError::MissingValue(key.to_string()))?,
            };
            if !flag.kind.admits(value) {
                return Err(ArgError::BadValue {
                    key: key.to_string(),
                    value: value.to_string(),
                    range: flag.kind.range(),
                });
            }
            args.options.insert(flag.name, value.to_string());
        }
        Ok(args)
    }

    /// Raw string value of an option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Numeric value of an option in the type the handler computes in.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        let parsed = self.get(key).map(|v| v.parse().ok());
        parsed.map(|v| v.expect("parse checked the value against a range that fits the type"))
    }

    /// Whether an option, switch or valued, was given.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::CliError;

    const FLAGS: &[Flag] = &[
        Flag {
            name: "gpus",
            kind: Kind::Uint(1, 1024),
        },
        Flag {
            name: "size",
            kind: Kind::Uint(0, 1 << 32),
        },
        Flag {
            name: "zipf",
            kind: Kind::Float(Bound::Excluded(0.0), f64::INFINITY),
        },
        Flag {
            name: "slo-target",
            kind: Kind::Float(Bound::Included(0.0), 1.0),
        },
        Flag {
            name: "out",
            kind: Kind::Text,
        },
        Flag {
            name: "trace",
            kind: Kind::Switch,
        },
    ];

    fn unreachable_handler(_: &Args) -> Result<String, CliError> {
        unreachable!("the parser never calls a handler")
    }

    const ROW: Command = Command {
        name: "demo",
        mode: "mode",
        groups: &[FLAGS],
        run: unreachable_handler,
    };

    fn parse(toks: &[&str]) -> Result<Args, ArgError> {
        let tokens: Vec<String> = toks.iter().map(|t| t.to_string()).collect();
        Args::parse(&tokens, &ROW)
    }

    #[test]
    fn parses_options_and_flags() {
        let a = parse(&["--gpus", "8", "--size=1000", "--trace", "--out", "a=b"]).unwrap();
        assert_eq!(a.get("gpus"), Some("8"));
        assert_eq!(a.num::<usize>("size"), Some(1000));
        assert_eq!(a.get("out"), Some("a=b"));
        assert!(a.flag("trace"));
        assert!(a.flag("gpus"));
        assert!(!a.flag("zipf"));
    }

    #[test]
    fn absent_options_read_as_none() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.num::<u32>("gpus"), None);
        assert_eq!(a.get("size"), None);
    }

    #[test]
    fn the_last_value_of_a_repeated_option_wins() {
        let a = parse(&["--gpus", "8", "--gpus", "2"]).unwrap();
        assert_eq!(a.num::<u32>("gpus"), Some(2));
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        let unknown = |key: &str| ArgError::UnknownOption {
            key: key.into(),
            command: "demo mode".into(),
        };
        assert_eq!(parse(&["--bogus", "1"]).unwrap_err(), unknown("bogus"));
        assert_eq!(parse(&["positional"]).unwrap_err(), unknown("positional"));
        // A listed name is an option only behind its dashes.
        assert_eq!(parse(&["gpus", "4"]).unwrap_err(), unknown("gpus"));
        assert_eq!(
            parse(&["--gpus"]).unwrap_err(),
            ArgError::MissingValue("gpus".into())
        );
    }

    #[test]
    fn values_outside_the_declared_kind_are_refused_at_parse() {
        let refused = |toks: &[&str]| match parse(toks) {
            Err(ArgError::BadValue { key, range, .. }) => format!("{key} {range}"),
            other => panic!("{toks:?}: {other:?}"),
        };
        let max = u64::MAX.to_string();
        for value in ["0", "1025", "many", "-1", "", "NaN", "1.5", max.as_str()] {
            assert_eq!(refused(&["--gpus", value]), "gpus 1..=1024");
        }
        assert_eq!(refused(&["--size", "4294967297"]), "size 0..=4294967296");
        assert_eq!(
            parse(&["--size", "4294967296"]).unwrap().num("size"),
            Some(1usize << 32)
        );
        for value in ["0", "-1", "NaN", "inf", "-inf", "x", ""] {
            assert_eq!(refused(&["--zipf", value]), "zipf (0, inf)");
        }
        assert_eq!(
            parse(&["--zipf", "1e300"]).unwrap().num("zipf"),
            Some(1e300)
        );
        for value in ["1", "1.5", "-0.1", "NaN"] {
            assert_eq!(refused(&["--slo-target", value]), "slo-target [0, 1)");
        }
        assert_eq!(
            parse(&["--slo-target=0"]).unwrap().num("slo-target"),
            Some(0.0)
        );
    }

    #[test]
    fn errors_display_helpfully() {
        assert_eq!(
            parse(&["--gpus", "0"]).unwrap_err().to_string(),
            "--gpus must be in 1..=1024, not \"0\""
        );
        assert_eq!(
            parse(&["--x"]).unwrap_err().to_string(),
            "unknown option --x for `gpmr demo mode`"
        );
        assert!(ArgError::MissingValue("gpus".into())
            .to_string()
            .contains("--gpus"));
    }
}
