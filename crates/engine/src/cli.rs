//! The `eproc` flag table and its declarative argument parser.
//!
//! Every flag any command line of the project takes is declared **once**,
//! in [`FLAGS`] (name, arity, and the phrase used in error messages).
//! Each reader parses against that one table with its own accept list:
//!
//! - every `eproc` subcommand, which rejects each other *known* flag by
//!   name ("flag `--shard` does not apply to `merge`") instead of
//!   falling through scattered special cases;
//! - [`ExperimentSpec::parse_cli`](crate::spec::ExperimentSpec::parse_cli),
//!   which reads a spec line with the eight [`SPEC_FLAGS`](crate::spec::SPEC_FLAGS);
//! - the `eproc-bench` experiment binaries, for `--scale`, `--seed` and
//!   `--threads`.
//!
//! Value errors share one wording — ``flag `--x` expects <what>`` —
//! always naming the offending token.
//!
//! The parser is purely lexical: it pairs flags with raw values and
//! collects positionals in order. Typed interpretation (integers,
//! spec grammars, paths) happens in the caller via the `expect_*`
//! helpers below, so every reader reports malformed values with the
//! same phrasing; the spec flags have one reader,
//! [`SpecFlags`](crate::spec::SpecFlags).

use crate::spec::SpecError;
use std::fmt;
use std::time::Duration;

/// How many value tokens a flag consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// A bare switch (`--progress`).
    Switch,
    /// Exactly one value token. The string is the phrase used in error
    /// messages: ``flag `--json` expects a path``.
    Value(&'static str),
    /// An optional trailing unsigned integer (`--resample [W]`): the
    /// next token is consumed iff it parses as one, so a following
    /// flag or positional is left untouched.
    OptionalInt,
}

/// One flag the CLI knows, declared once for every subcommand.
#[derive(Debug, Clone, Copy)]
pub struct FlagDef {
    /// The flag's spelling (`--process`).
    pub name: &'static str,
    /// Value shape.
    pub arity: Arity,
}

/// Every flag the project's command lines know, declared exactly once.
/// Each reader passes [`parse_args`] the subset it accepts; anything else
/// in this table is rejected by name ("flag `--x` does not apply to
/// `cmd`").
pub const FLAGS: &[FlagDef] = &[
    FlagDef {
        name: "--scale",
        arity: Arity::Value("quick|paper"),
    },
    FlagDef {
        name: "--seed",
        arity: Arity::Value("an unsigned integer"),
    },
    FlagDef {
        name: "--threads",
        arity: Arity::Value("an integer of at least 1"),
    },
    FlagDef {
        name: "--trials",
        arity: Arity::Value("an integer of at least 1"),
    },
    FlagDef {
        name: "--metrics",
        arity: Arity::Value("a metric list"),
    },
    FlagDef {
        name: "--resample",
        arity: Arity::OptionalInt,
    },
    FlagDef {
        name: "--shard",
        arity: Arity::Value("<i>/<k>, e.g. 0/4"),
    },
    FlagDef {
        name: "--json",
        arity: Arity::Value("a path"),
    },
    FlagDef {
        name: "--csv",
        arity: Arity::Value("a path"),
    },
    FlagDef {
        name: "--progress",
        arity: Arity::Switch,
    },
    FlagDef {
        name: "--telemetry",
        arity: Arity::Value("a path"),
    },
    FlagDef {
        name: "--checkpoint",
        arity: Arity::Value("a path"),
    },
    FlagDef {
        name: "--checkpoint-every",
        arity: Arity::Value("an integer of at least 1"),
    },
    FlagDef {
        name: "--resume",
        arity: Arity::Value("a path"),
    },
    FlagDef {
        name: "--max-wall",
        arity: Arity::Value("a positive number of seconds"),
    },
    FlagDef {
        name: "--inject-faults",
        arity: Arity::Value("a fault spec (kind@family.group[,...])"),
    },
    FlagDef {
        name: "--quantiles",
        arity: Arity::Value("a quantile list, e.g. 0.5,0.9,0.99 or p50,p90,p99"),
    },
    FlagDef {
        name: "--quiet",
        arity: Arity::Switch,
    },
    FlagDef {
        name: "--graph",
        arity: Arity::Value("a graph spec"),
    },
    FlagDef {
        name: "--process",
        arity: Arity::Value("a process list"),
    },
    FlagDef {
        name: "--target",
        arity: Arity::Value("a target"),
    },
    FlagDef {
        name: "--start",
        arity: Arity::Value("a vertex index"),
    },
    FlagDef {
        name: "--cap",
        arity: Arity::Value("auto|nlogn:<factor>|abs:<steps>"),
    },
    FlagDef {
        name: "--cache",
        arity: Arity::Value("a directory"),
    },
    FlagDef {
        name: "--canonical",
        arity: Arity::Switch,
    },
    FlagDef {
        name: "--max-bytes",
        arity: Arity::Value("a byte budget"),
    },
];

/// A usage error: malformed flags or values. The CLI maps every one of
/// these to exit code 2 (`EX_USAGE`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError {
    message: String,
}

impl UsageError {
    /// A free-form usage error.
    pub fn new(message: impl Into<String>) -> UsageError {
        UsageError {
            message: message.into(),
        }
    }

    /// The uniform value-error wording: ``flag `--x` expects <what>``,
    /// naming the offending token when there is one.
    pub fn expects(flag: &str, what: &str, got: Option<&str>) -> UsageError {
        match got {
            Some(tok) => UsageError::new(format!("flag `{flag}` expects {what}, got {tok:?}")),
            None => UsageError::new(format!("flag `{flag}` expects {what}")),
        }
    }
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for UsageError {}

/// A malformed spec value on a command line is a usage error.
impl From<SpecError> for UsageError {
    fn from(e: SpecError) -> UsageError {
        UsageError::new(e.to_string())
    }
}

/// The lexical result of [`parse_args`]: flags (name + raw value) in
/// command-line order, positionals in order, and whether `--help`/`-h`
/// appeared anywhere.
#[derive(Debug, Default, Clone)]
pub struct Parsed {
    /// Flag occurrences in order, keyed by name.
    pub flags: Vec<(&'static str, Option<String>)>,
    /// Non-flag tokens in order.
    pub positionals: Vec<String>,
    /// `--help` / `-h` was present.
    pub help: bool,
}

impl Parsed {
    /// Last value of `name`, if the flag appeared with a value.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether `name` appeared at all.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }
}

/// Parses `args` for subcommand `cmd` against [`FLAGS`], honouring only
/// the names in `accepts`.
///
/// Rejections, in order of specificity: a known-but-foreign flag
/// ("does not apply to"), an unknown `-`-prefixed token, and a missing
/// value for a [`Arity::Value`] flag (a following token that is itself
/// a known flag counts as missing, so `--json --threads 4` fails here
/// rather than after the experiment has run).
pub fn parse_args(
    cmd: &str,
    accepts: &[&str],
    args: impl Iterator<Item = String>,
) -> Result<Parsed, UsageError> {
    let mut parsed = Parsed::default();
    let mut args = args.peekable();
    while let Some(token) = args.next() {
        if token == "--help" || token == "-h" {
            parsed.help = true;
            continue;
        }
        let def = FLAGS.iter().find(|d| d.name == token);
        match def {
            Some(def) => {
                if !accepts.contains(&def.name) {
                    return Err(UsageError::new(format!(
                        "flag `{}` does not apply to `{cmd}`",
                        def.name
                    )));
                }
                let value = match def.arity {
                    Arity::Switch => None,
                    Arity::Value(what) => {
                        let next_is_flag = args.peek().is_some_and(|t| {
                            t == "-h" || t == "--help" || FLAGS.iter().any(|d| d.name == t)
                        });
                        match args.next() {
                            Some(v) if !next_is_flag && !v.is_empty() => Some(v),
                            _ => return Err(UsageError::expects(def.name, what, None)),
                        }
                    }
                    Arity::OptionalInt => match args.peek().and_then(|v| v.parse::<u64>().ok()) {
                        Some(_) => args.next(),
                        None => None,
                    },
                };
                parsed.flags.push((def.name, value));
            }
            None if token.starts_with('-') => {
                return Err(UsageError::new(format!("unknown flag {token:?}")));
            }
            None => parsed.positionals.push(token),
        }
    }
    Ok(parsed)
}

/// Parses an unsigned integer value with the uniform error wording.
pub fn expect_u64(flag: &str, raw: &str) -> Result<u64, UsageError> {
    raw.parse()
        .map_err(|_| UsageError::expects(flag, "an unsigned integer", Some(raw)))
}

/// Parses a count (unsigned integer `>= 1`).
pub fn expect_count(flag: &str, raw: &str) -> Result<usize, UsageError> {
    match raw.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(UsageError::expects(
            flag,
            "an integer of at least 1",
            Some(raw),
        )),
    }
}

/// Parses a finite, strictly positive number (seconds, factors).
pub fn expect_positive_f64(flag: &str, raw: &str) -> Result<f64, UsageError> {
    match raw.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        _ => Err(UsageError::expects(flag, "a positive number", Some(raw))),
    }
}

/// Parses a positive number of seconds that a [`Duration`] can hold.
pub fn expect_seconds(flag: &str, raw: &str) -> Result<Duration, UsageError> {
    let secs = expect_positive_f64(flag, raw)?;
    Duration::try_from_secs_f64(secs).map_err(|_| {
        UsageError::expects(
            flag,
            "a positive number of seconds no larger than 1.8e19",
            Some(raw),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn collects_flags_values_and_positionals_in_order() {
        let p = parse_args(
            "run",
            &["--json", "--progress", "--resample"],
            argv("spec --progress --json out.json --resample 3 extra"),
        )
        .unwrap();
        assert_eq!(p.positionals, ["spec", "extra"]);
        assert_eq!(p.value_of("--json"), Some("out.json"));
        assert_eq!(p.value_of("--resample"), Some("3"));
        assert!(p.has("--progress"));
        assert!(!p.help);
    }

    #[test]
    fn foreign_known_flags_are_rejected_by_name() {
        let err = parse_args("merge", &["--json"], argv("--shard 0/2")).unwrap_err();
        assert_eq!(err.to_string(), "flag `--shard` does not apply to `merge`");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = parse_args("run", &["--json"], argv("--frobnicate")).unwrap_err();
        assert_eq!(err.to_string(), "unknown flag \"--frobnicate\"");
    }

    #[test]
    fn missing_values_fail_eagerly_with_uniform_wording() {
        let err = parse_args("run", &["--json"], argv("--json")).unwrap_err();
        assert_eq!(err.to_string(), "flag `--json` expects a path");
        // A following known flag counts as a missing value.
        let err =
            parse_args("run", &["--json", "--progress"], argv("--json --progress")).unwrap_err();
        assert_eq!(err.to_string(), "flag `--json` expects a path");
    }

    #[test]
    fn optional_int_leaves_non_integers_untouched() {
        let p = parse_args(
            "run",
            &["--resample", "--progress"],
            argv("--resample --progress"),
        )
        .unwrap();
        assert_eq!(p.value_of("--resample"), None);
        assert!(p.has("--resample"));
        assert!(p.has("--progress"));
    }

    #[test]
    fn help_is_recognised_anywhere() {
        let p = parse_args("run", &[], argv("-h")).unwrap();
        assert!(p.help);
    }

    #[test]
    fn typed_helpers_name_the_offending_token() {
        assert_eq!(
            expect_u64("--seed", "abc").unwrap_err().to_string(),
            "flag `--seed` expects an unsigned integer, got \"abc\""
        );
        assert_eq!(
            expect_count("--threads", "0").unwrap_err().to_string(),
            "flag `--threads` expects an integer of at least 1, got \"0\""
        );
        assert_eq!(
            expect_positive_f64("--max-wall", "-2")
                .unwrap_err()
                .to_string(),
            "flag `--max-wall` expects a positive number, got \"-2\""
        );
        assert_eq!(expect_u64("--seed", "7").unwrap(), 7);
        assert_eq!(expect_count("--threads", "4").unwrap(), 4);
        assert_eq!(expect_positive_f64("--max-wall", "1.5").unwrap(), 1.5);
        assert_eq!(
            expect_seconds("--max-wall", "1e300")
                .unwrap_err()
                .to_string(),
            "flag `--max-wall` expects a positive number of seconds no larger than 1.8e19, \
             got \"1e300\""
        );
        assert_eq!(
            expect_seconds("--max-wall", "0.25").unwrap(),
            Duration::from_millis(250)
        );
    }
}
