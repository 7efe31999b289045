//! Minimal flag parser (no external dependencies): `--key value` and
//! `--flag` switches after a subcommand word.

use std::fmt;

/// Parsed command line: the subcommand plus its flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand word (first non-flag argument).
    pub command: Option<String>,
    /// Every flag in argv order: `--key value` with its value, a
    /// `--flag` switch with `None`.
    flags: Vec<(String, Option<String>)>,
}

/// Parse error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse an iterator of arguments (excluding `argv[0]`).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut it = argv.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if name.is_empty() {
                    return Err(ArgError("stray `--`".into()));
                }
                // The CLI must never panic on user input: re-read the
                // peeked value fallibly instead of asserting on it.
                let takes_value = matches!(it.peek(), Some(v) if !v.starts_with("--"));
                let value = it.next_if(|_| takes_value);
                if value.is_some() && args.get(name).is_some() {
                    return Err(ArgError(format!("duplicate option --{name}")));
                }
                args.flags.push((name.to_string(), value));
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else {
                return Err(ArgError(format!("unexpected positional argument `{tok}`")));
            }
        }
        Ok(args)
    }

    /// String option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find_map(|(k, v)| v.as_deref().filter(|_| k == name))
    }

    /// Boolean switch (present without a value).
    pub fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|(k, v)| k == name && v.is_none())
    }

    /// Typed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("invalid value `{v}` for --{name}"))),
        }
    }

    /// Verify that every flag is one of the command's `options`
    /// (`--key value`) or `switches` (`--flag`), in its own form: an
    /// option given without a value or a switch given one is an error
    /// naming the flag, never silently read as the other kind. The
    /// error names the first bad flag in argv order.
    pub fn expect_only(&self, options: &[&str], switches: &[&str]) -> Result<(), ArgError> {
        for (k, v) in &self.flags {
            let (is_option, is_switch) = (
                options.contains(&k.as_str()),
                switches.contains(&k.as_str()),
            );
            match v {
                Some(_) if is_switch => return Err(ArgError(format!("--{k} takes no value"))),
                Some(_) if !is_option => return Err(ArgError(format!("unknown option --{k}"))),
                None if is_option => return Err(ArgError(format!("--{k} needs a value"))),
                None if !is_switch => return Err(ArgError(format!("unknown switch --{k}"))),
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_options_switches() {
        let a = parse("measure --fwd 0.1 --samples 50 --verbose").unwrap();
        assert_eq!(a.command.as_deref(), Some("measure"));
        assert_eq!(a.get("fwd"), Some("0.1"));
        assert_eq!(a.get_or("samples", 0usize).unwrap(), 50);
        assert!(a.switch("verbose"));
        assert!(!a.switch("quiet"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("measure").unwrap();
        assert_eq!(a.get_or("samples", 15usize).unwrap(), 15);
        assert_eq!(a.get_or("fwd", 0.0f64).unwrap(), 0.0);
    }

    #[test]
    fn bad_value_reports_option_name() {
        let a = parse("measure --samples abc").unwrap();
        let e = a.get_or("samples", 0usize).unwrap_err();
        assert!(e.0.contains("--samples"));
        assert!(e.0.contains("abc"));
    }

    #[test]
    fn duplicate_rejected() {
        assert!(parse("x --a 1 --a 2").is_err());
    }

    #[test]
    fn unexpected_positional_rejected() {
        assert!(parse("measure oops").is_err());
    }

    #[test]
    fn expect_only_flags_unknowns() {
        let a = parse("m --good 1 --weird 2").unwrap();
        assert!(a.expect_only(&["good"], &[]).is_err());
        assert!(a.expect_only(&["good", "weird"], &[]).is_ok());
        let a = parse("m --good 1 --on").unwrap();
        assert_eq!(
            a.expect_only(&["good"], &[]).unwrap_err().0,
            "unknown switch --on"
        );
        assert!(a.expect_only(&["good"], &["on"]).is_ok());
        // Each kind given in the other's form names the flag.
        let a = parse("m --on yes").unwrap();
        assert_eq!(
            a.expect_only(&[], &["on"]).unwrap_err().0,
            "--on takes no value"
        );
        let a = parse("m --n").unwrap();
        assert_eq!(
            a.expect_only(&["n"], &[]).unwrap_err().0,
            "--n needs a value"
        );
    }

    #[test]
    fn expect_only_names_the_first_bad_flag() {
        for _ in 0..20 {
            let a = parse("m --aa 1 --bb 2 --cc 3").unwrap();
            assert_eq!(
                a.expect_only(&[], &[]).unwrap_err().0,
                "unknown option --aa"
            );
        }
        let a = parse("m --on --n 3 --x 1").unwrap();
        assert_eq!(
            a.expect_only(&["n"], &[]).unwrap_err().0,
            "unknown switch --on"
        );
    }

    #[test]
    fn trailing_switch_before_option() {
        let a = parse("m --dry-run --n 3").unwrap();
        assert!(a.switch("dry-run"));
        assert_eq!(a.get_or("n", 0u32).unwrap(), 3);
    }
}
