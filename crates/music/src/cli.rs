//! The command-line reader `music-sim`, `music-node` and `music-load`
//! share. A command declares the flags it reads by its usage line, e.g.
//! `trace [profile] [--seed N] [--spans]`: each word naming a flag
//! declares it, and the word after it, unless that word is a flag or ends
//! the flag's `[…]`, is its operand's placeholder. So `--seed` takes an
//! operand and `--spans` is a switch. [`Args::parse`] accepts exactly the
//! declared flags: what a command reads and what its usage says are one
//! text.
//!
//! An undeclared flag, a flag without its operand, an operand that does
//! not parse and a free operand beyond the command's count are errors that
//! name the culprit.

use std::str::FromStr;

/// `flag`'s declaration in `usage`: `None` if undeclared, `Some("")` for
/// a switch, else `Some` of its operand's placeholder.
fn declared<'u>(usage: &'u str, flag: &str) -> Option<&'u str> {
    let mut words = usage.split_whitespace();
    while let Some(word) = words.next() {
        let word = word.trim_start_matches('[');
        if word.starts_with("--") && word.trim_end_matches(']') == flag {
            if word.ends_with(']') {
                return Some("");
            }
            let operand = words.next().filter(|w| !w.starts_with(['-', '[']));
            return Some(operand.map_or("", |w| w.trim_end_matches(']')));
        }
    }
    None
}

/// A command line read against one command's usage line.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    given: Vec<(String, Option<String>)>,
    operands: Vec<String>,
}

impl Args {
    /// Reads `args` (without the program or command name) against the
    /// flags `usage` declares, accepting at most `max_operands` free
    /// operands.
    ///
    /// # Errors
    ///
    /// A message naming an undeclared flag, a flag missing its operand, or
    /// the first free operand beyond `max_operands`.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        usage: &'static str,
        max_operands: usize,
    ) -> Result<Args, String> {
        let mut given = Vec::new();
        let mut operands = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                if operands.len() == max_operands {
                    return Err(format!("unexpected operand `{arg}`"));
                }
                operands.push(arg);
                continue;
            }
            let value = match declared(usage, &arg) {
                None => return Err(format!("unknown flag `{arg}`")),
                Some("") => None,
                Some(operand) => Some(
                    it.next()
                        .ok_or_else(|| format!("`{arg}` needs {operand}"))?,
                ),
            };
            given.push((arg, value));
        }
        Ok(Args {
            usage,
            given,
            operands,
        })
    }

    /// The free operands, in order.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// Whether switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    /// The operand last given to `name`, as written.
    pub fn value(&self, name: &str) -> Option<&str> {
        debug_assert!(
            declared(self.usage, name).is_some(),
            "`{name}` is undeclared"
        );
        let (_, value) = self.given.iter().rev().find(|(n, _)| n == name)?;
        value.as_deref()
    }

    /// The operand last given to `name`, parsed; `None` if `name` was not
    /// given.
    ///
    /// # Errors
    ///
    /// A message naming the flag and the operand when it does not parse.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(v) = self.value(name) else {
            return Ok(None);
        };
        let operand = declared(self.usage, name).unwrap_or_default();
        v.parse()
            .map(Some)
            .map_err(|_| format!("`{name}` needs {operand}, got `{v}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "cmd [profile] --id N [--seed N] [--spans]\n      [--mode a|b] --last";

    fn parse(args: &[&str], max_operands: usize) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()), USAGE, max_operands)
    }

    #[test]
    fn the_usage_line_declares_switches_and_operands() {
        for (flag, want) in [
            ("--id", Some("N")),
            ("--seed", Some("N")),
            ("--spans", Some("")),
            ("--mode", Some("a|b")),
            ("--last", Some("")),
            ("--see", None),
            ("profile", None),
        ] {
            assert_eq!(declared(USAGE, flag), want, "{flag}");
        }
    }

    #[test]
    fn declared_flags_switches_and_operands_are_read() {
        let a = parse(&["1Us", "--seed", "3", "--spans", "--seed", "4"], 1).unwrap();
        assert_eq!(a.operands(), ["1Us"]);
        assert!(a.switch("--spans"));
        assert!(!a.switch("--last"));
        assert_eq!(a.get::<u64>("--seed"), Ok(Some(4)), "the last one wins");
        assert_eq!(a.get::<String>("--mode"), Ok(None));
        assert_eq!(a.value("--id"), None);
    }

    #[test]
    fn every_error_names_its_culprit() {
        let err = |args: &[&str], max| parse(args, max).unwrap_err();
        assert_eq!(err(&["--schedules", "5"], 0), "unknown flag `--schedules`");
        assert_eq!(err(&["--seed"], 0), "`--seed` needs N");
        assert_eq!(err(&["extra"], 0), "unexpected operand `extra`");
        assert_eq!(err(&["1Us", "1l"], 1), "unexpected operand `1l`");
        let a = parse(&["--seed", "seven"], 0).unwrap();
        assert_eq!(
            a.get::<u64>("--seed"),
            Err("`--seed` needs N, got `seven`".to_string())
        );
    }
}
