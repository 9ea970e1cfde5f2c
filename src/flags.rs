//! The one command-line flag parser of the `sentomist`, `sentomistd` and
//! `sentomist_loadgen` binaries.
//!
//! A command declares its flags once, as a spec string: the flag names
//! separated by spaces, each with a trailing `=` when the flag takes a
//! value. [`Flags::parse`] walks the arguments against the spec, so an
//! undeclared flag is an error by construction, a value flag takes the
//! argument after it, and a switch never consumes the argument after it.
//!
//! ```
//! use sentomist::flags::Flags;
//!
//! let args: Vec<String> = ["--json", "corpus", "--threads", "4"]
//!     .iter()
//!     .map(|s| s.to_string())
//!     .collect();
//! let flags = Flags::parse("threads= json", &args).unwrap();
//! assert_eq!(flags.positional(), ["corpus"]);
//! assert!(flags.has("json"));
//! assert_eq!(flags.u64("threads", 1).unwrap(), 4);
//! assert!(Flags::parse("threads= json", &["--jsno".to_string()]).is_err());
//! ```

use std::collections::HashMap;

/// A parsed command line: the positional arguments in order, plus the
/// declared flags that were given.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    positional: Vec<String>,
    /// Flag name to value; a switch maps to the empty string. A repeated
    /// flag keeps its last value.
    given: HashMap<String, String>,
}

impl Flags {
    /// Parses `args` against the command's flag `spec`, e.g.
    /// `"seeds= threads= json"`.
    ///
    /// # Errors
    ///
    /// A flag the spec does not declare, or a value flag with no value
    /// after it (the last argument, or followed by another flag).
    pub fn parse(spec: &str, args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                flags.positional.push(arg.clone());
                continue;
            };
            let takes_value = spec
                .split_whitespace()
                .find_map(|f| {
                    let (flag, takes_value) = f.strip_suffix('=').map_or((f, false), |f| (f, true));
                    (flag == name).then_some(takes_value)
                })
                .ok_or_else(|| format!("unknown flag `--{name}`"))?;
            let value = if takes_value {
                match args.next() {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => return Err(format!("--{name} wants a value")),
                }
            } else {
                String::new()
            };
            flags.given.insert(name.to_string(), value);
        }
        Ok(flags)
    }

    /// The positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Whether the flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.contains_key(name)
    }

    /// The flag's value, if it was given (`""` for a switch).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.given.get(name).map(String::as_str)
    }

    /// The flag's value parsed as a number, if it was given.
    ///
    /// # Errors
    ///
    /// A value that does not parse.
    pub fn opt_u64(&self, name: &str) -> Result<Option<u64>, String> {
        self.number(name)
    }

    /// The flag's value parsed as a number, or `default`.
    ///
    /// # Errors
    ///
    /// A value that does not parse.
    pub fn u64(&self, name: &str, default: u64) -> Result<u64, String> {
        Ok(self.number(name)?.unwrap_or(default))
    }

    /// The flag's value parsed as a float, or `default`.
    ///
    /// # Errors
    ///
    /// A value that does not parse.
    pub fn f64(&self, name: &str, default: f64) -> Result<f64, String> {
        Ok(self.number(name)?.unwrap_or(default))
    }

    fn number<N: std::str::FromStr>(&self, name: &str) -> Result<Option<N>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} wants a number, got `{v}`"))
            })
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "seeds= nu= json";

    fn parse(list: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        Flags::parse(SPEC, &args)
    }

    #[test]
    fn undeclared_flags_are_rejected() {
        for list in [&["--seeds", "4", "--sedes", "5"][..], &["--seeds="][..]] {
            assert!(parse(list).unwrap_err().starts_with("unknown flag `--"));
        }
    }

    #[test]
    fn a_value_flag_needs_a_value() {
        for list in [&["--seeds"][..], &["--seeds", "--json"][..]] {
            assert_eq!(parse(list).unwrap_err(), "--seeds wants a value");
        }
        // A negative number is a value, not a flag.
        let flags = parse(&["--nu", "-0.5"]).unwrap();
        assert_eq!(flags.f64("nu", 0.05).unwrap(), -0.5);
    }

    #[test]
    fn numbers_default_and_report_bad_values() {
        let flags = parse(&["--seeds", "many"]).unwrap();
        assert_eq!(
            flags.u64("seeds", 1).unwrap_err(),
            "--seeds wants a number, got `many`"
        );
        assert_eq!(flags.opt_u64("nu").unwrap(), None);
        assert_eq!(flags.f64("nu", 0.05).unwrap(), 0.05);
    }
}
