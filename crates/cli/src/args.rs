//! A small argument parser: positional arguments plus `--flag [value]`
//! options. Hand-rolled so the workspace stays within its offline
//! dependency set (no clap).

use std::collections::HashMap;

/// Parsed command-line arguments: positionals in order, options by name.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
    /// Every `--name` given, in command-line order.
    names: Vec<String>,
}

/// Option names that take no value (everything else consumes the next
/// token as its value).
const BOOL_FLAGS: &[&str] = &["lcc", "list", "help", "csr", "all", "json"];

impl Args {
    /// Parses raw tokens (without the program/subcommand names).
    ///
    /// # Errors
    /// Returns a message when a value-taking option misses its value.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = tokens.into_iter();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if name.is_empty() {
                    return Err("stray `--`".into());
                }
                if BOOL_FLAGS.contains(&name) {
                    args.flags.push(name.to_string());
                    args.names.push(name.to_string());
                } else if let Some((k, v)) = name.split_once('=') {
                    args.options.insert(k.to_string(), v.to_string());
                    args.names.push(k.to_string());
                } else {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("option --{name} needs a value"))?;
                    args.options.insert(name.to_string(), v);
                    args.names.push(name.to_string());
                }
            } else {
                args.positional.push(tok);
            }
        }
        Ok(args)
    }

    /// The `i`-th positional argument.
    pub fn pos(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Required positional argument with a name for the error message.
    ///
    /// # Errors
    /// Returns a usage message when missing.
    pub fn require_pos(&self, i: usize, name: &str) -> Result<&str, String> {
        self.pos(i).ok_or_else(|| format!("missing <{name}>"))
    }

    /// A `--name value` option as a string.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A `--name value` option parsed to any `FromStr` type.
    ///
    /// # Errors
    /// Returns a message when the value does not parse.
    pub fn opt_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.opt(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{name}: {v:?}")),
        }
    }

    /// Whether a boolean `--flag` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Number of positional arguments.
    pub fn num_pos(&self) -> usize {
        self.positional.len()
    }

    /// The name (without `--`) of every option and flag given, in
    /// command-line order.
    pub fn option_names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn positionals_and_options() {
        let a = parse("input.txt --alg tv --queries 100 --lcc");
        assert_eq!(a.pos(0), Some("input.txt"));
        assert_eq!(a.opt("alg"), Some("tv"));
        assert_eq!(a.opt_parse("queries", 0usize).unwrap(), 100);
        assert!(a.flag("lcc"));
        assert!(!a.flag("list"));
    }

    #[test]
    fn equals_syntax() {
        let a = parse("--seed=42 --alg=ck");
        assert_eq!(a.opt_parse("seed", 0u64).unwrap(), 42);
        assert_eq!(a.opt("alg"), Some("ck"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = Args::parse(vec!["--alg".to_string()]).unwrap_err();
        assert!(e.contains("--alg"));
    }

    #[test]
    fn bad_parse_is_an_error() {
        let a = parse("--queries many");
        assert!(a.opt_parse("queries", 0usize).is_err());
    }

    #[test]
    fn option_names_keep_command_line_order() {
        let a = parse("x --lcc --alg=tv --queries 5");
        assert_eq!(
            a.option_names().collect::<Vec<_>>(),
            ["lcc", "alg", "queries"]
        );
    }

    #[test]
    fn defaults_apply() {
        let a = parse("file");
        assert_eq!(a.opt_parse("queries", 7usize).unwrap(), 7);
        assert_eq!(a.require_pos(0, "input").unwrap(), "file");
        assert!(a.require_pos(1, "output").is_err());
    }
}
