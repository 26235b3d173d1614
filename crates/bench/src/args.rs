//! The one command-line parser behind `relax-bench <name>` and
//! `trace_analyze`.
//!
//! A command declares its flags as the usage strings it prints:
//! `"--profile"` takes no value, `"--trace PATH"` one, `"--trace NAME
//! PATH"` two, and a bracketed value (`"--trace [PATH]"`) may be left
//! out. Anything else on the command line is an error, so a typo or a
//! forgotten value stops the run instead of changing what it does.

/// The flags one invocation was given, with their values.
#[derive(Debug)]
pub struct Args(Vec<(&'static str, Vec<String>)>);

impl Args {
    /// Parses `argv` against the declared `flags`. The error names the
    /// unknown argument, or the flag and the values it is missing.
    pub fn parse(
        flags: &[&'static str],
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut argv = argv.into_iter().peekable();
        let mut parsed = Vec::new();
        while let Some(arg) = argv.next() {
            let mut spec = flags
                .iter()
                .find(|spec| spec.split(' ').next() == Some(arg.as_str()))
                .ok_or_else(|| format!("unknown argument {arg:?}"))?
                .split(' ');
            let flag = spec.next().expect("split yields the flag itself");
            let mut values = Vec::new();
            for value in spec {
                match argv.next_if(|next| !next.starts_with("--")) {
                    Some(v) => values.push(v),
                    None if value.starts_with('[') => break,
                    None => return Err(format!("{flag} needs {value}")),
                }
            }
            parsed.push((flag, values));
        }
        Ok(Args(parsed))
    }

    /// The values given with `flag` (empty for a bare flag), or `None`
    /// when it was not passed. The last occurrence wins.
    pub fn values(&self, flag: &str) -> Option<&[String]> {
        let (_, values) = self.0.iter().rev().find(|(f, _)| *f == flag)?;
        Some(values)
    }

    /// Was `flag` passed?
    pub fn has(&self, flag: &str) -> bool {
        self.values(flag).is_some()
    }

    /// The first value given with `flag`, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag)?.first().map(String::as_str)
    }
}

/// The usage line of `command` over its declared `flags`.
pub fn usage(command: &str, flags: &[&str]) -> String {
    flags
        .iter()
        .fold(command.to_string(), |line, f| format!("{line} [{f}]"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&'static str], argv: &[&str]) -> Result<Args, String> {
        Args::parse(flags, argv.iter().map(ToString::to_string))
    }

    #[test]
    fn values_follow_the_declared_shape() {
        let flags = &["--profile", "--trace NAME PATH", "--out [PATH]"];
        let a = parse(flags, &["--trace", "combined", "c.jsonl", "--out"]).unwrap();
        assert_eq!(a.values("--trace").unwrap(), ["combined", "c.jsonl"]);
        assert_eq!(a.value("--trace"), Some("combined"));
        assert!(a.has("--out") && a.value("--out").is_none());
        assert!(!a.has("--profile"));
        let a = parse(flags, &["--out", "x", "--profile", "--out", "y"]).unwrap();
        assert_eq!(a.value("--out"), Some("y"));
        assert!(a.has("--profile"));
    }

    #[test]
    fn typos_and_forgotten_values_are_errors() {
        let flags = &["--profile", "--trace NAME PATH"];
        let err = parse(flags, &["--profle"]).unwrap_err();
        assert!(err.contains("--profle"), "{err}");
        let err = parse(flags, &["--trace", "combined"]).unwrap_err();
        assert!(err.contains("--trace needs PATH"), "{err}");
        let err = parse(flags, &["--trace", "--profile"]).unwrap_err();
        assert!(err.contains("--trace needs NAME"), "{err}");
        // A stray positional is as unknown as a stray flag.
        assert!(parse(flags, &["--profile", "extra"]).is_err());
        assert_eq!(
            usage("relax-bench x", flags),
            "relax-bench x [--profile] [--trace NAME PATH]"
        );
    }
}
