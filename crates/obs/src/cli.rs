//! The small argument parser shared by the `bfc` and `repro` binaries.
//!
//! Replaces the binaries' previous hand-rolled scanning (which, e.g.,
//! treated `repro --scale table1 small` as small scale because `small`
//! appeared *somewhere* on the command line). Rules:
//!
//! * declared value flags consume exactly the next token (or use
//!   `--flag=value`);
//! * declared switch flags take no value;
//! * anything else starting with `--` is an error;
//! * remaining tokens are positionals, in order.
//!
//! [`CliError`] separates a wrong command line, which the binaries answer
//! with their usage banner and exit code 2, from work that failed on a
//! well-formed command line, which they report with the message alone.

use std::collections::{BTreeMap, BTreeSet};

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct CliArgs {
    /// Non-flag tokens, in order.
    pub positionals: Vec<String>,
    values: BTreeMap<String, String>,
    switches: BTreeSet<String>,
}

impl CliArgs {
    /// Parses `args` (without the program name) against the declared
    /// flags. `value_flags` consume the following token; `switch_flags`
    /// do not.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        value_flags: &[&str],
        switch_flags: &[&str],
    ) -> Result<CliArgs, String> {
        let mut out = CliArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if let Some(flag) = arg.strip_prefix("--") {
                let (name, inline) = match flag.split_once('=') {
                    Some((n, v)) => (format!("--{n}"), Some(v.to_owned())),
                    None => (arg.clone(), None),
                };
                if value_flags.contains(&name.as_str()) {
                    let value = match inline {
                        Some(v) => v,
                        None => it
                            .next()
                            .ok_or_else(|| format!("{name} requires a value"))?,
                    };
                    if out.values.insert(name.clone(), value).is_some() {
                        return Err(format!("{name} given twice"));
                    }
                } else if switch_flags.contains(&name.as_str()) {
                    if inline.is_some() {
                        return Err(format!("{name} takes no value"));
                    }
                    out.switches.insert(name);
                } else {
                    return Err(format!("unknown flag `{arg}`"));
                }
            } else {
                out.positionals.push(arg);
            }
        }
        Ok(out)
    }

    /// The `i`th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// A value flag's argument.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A value flag parsed into `T`, with a clear error on bad input.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid {name} `{raw}`")),
        }
    }

    /// True if a switch flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// Errors unless a value flag's argument is one of `allowed`
    /// (returning the default `allowed[0]` when absent).
    pub fn one_of<'a>(&'a self, name: &str, allowed: &[&'a str]) -> Result<&'a str, String> {
        match self.value(name) {
            None => Ok(allowed[0]),
            Some(v) => allowed
                .iter()
                .find(|a| **a == v)
                .copied()
                .ok_or_else(|| format!("{name} must be one of {}", allowed.join("|"))),
        }
    }
}

/// Why a command stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line is wrong: an unknown command or flag, a bad
    /// value, or contradictory flags.
    Usage(String),
    /// The command line is fine but the work failed: an I/O or runtime
    /// error, or a gate that did not hold.
    Failed(String),
}

impl CliError {
    /// The message, without its class.
    pub fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Failed(m) => m,
        }
    }
}

/// Argument-parsing helpers return `String` errors; `?` turns them into
/// usage errors.
impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError::Usage(msg.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_values_switches_and_positionals() {
        let a = CliArgs::parse(
            strings(&["table1", "--scale", "small", "--json", "--reps=5"]),
            &["--scale", "--reps"],
            &["--json"],
        )
        .unwrap();
        assert_eq!(a.positional(0), Some("table1"));
        assert_eq!(a.value("--scale"), Some("small"));
        assert_eq!(a.parsed::<usize>("--reps").unwrap(), Some(5));
        assert!(a.has("--json"));
        assert!(!a.has("--quiet"));
    }

    #[test]
    fn positional_small_does_not_leak_into_scale() {
        // The regression this parser fixes: `small` as a stray token must
        // not read as `--scale small`.
        let a = CliArgs::parse(strings(&["table1", "small"]), &["--scale"], &[]).unwrap();
        assert_eq!(a.value("--scale"), None);
        assert_eq!(a.positional(1), Some("small"));
        let b =
            CliArgs::parse(strings(&["--scale", "small", "table1"]), &["--scale"], &[]).unwrap();
        assert_eq!(b.value("--scale"), Some("small"));
        assert_eq!(b.positional(0), Some("table1"));
    }

    #[test]
    fn rejects_unknown_and_malformed_flags() {
        assert!(CliArgs::parse(strings(&["--wat"]), &[], &[]).is_err());
        assert!(CliArgs::parse(strings(&["--scale"]), &["--scale"], &[]).is_err());
        assert!(CliArgs::parse(strings(&["--json=1"]), &[], &["--json"]).is_err());
        assert!(
            CliArgs::parse(strings(&["--reps", "1", "--reps", "2"]), &["--reps"], &[]).is_err()
        );
    }

    #[test]
    fn one_of_validates_and_defaults() {
        let a = CliArgs::parse(strings(&["--scale", "small"]), &["--scale"], &[]).unwrap();
        assert_eq!(a.one_of("--scale", &["full", "small"]).unwrap(), "small");
        let b = CliArgs::parse(strings(&[]), &["--scale"], &[]).unwrap();
        assert_eq!(b.one_of("--scale", &["full", "small"]).unwrap(), "full");
        let c = CliArgs::parse(strings(&["--scale", "wat"]), &["--scale"], &[]).unwrap();
        assert!(c.one_of("--scale", &["full", "small"]).is_err());
    }
}
