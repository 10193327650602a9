//! The harness command line: one scan of `argv` shared by every
//! experiment binary.
//!
//! Every binary accepts the common flags `--test-scale`, `--json FILE`
//! and `--store PATH`, because `run_all_experiments.sh` and the
//! benchmark's suite workloads pass them uniformly; a binary adds its
//! own [`Opt`]s on top. Anything else — a misspelt flag, a flag
//! missing its value, a flag given twice — is a usage error: the
//! binary prints one usage line and exits 2 instead of silently
//! running with defaults.

use tia_workloads::Scale;

/// An argument a binary accepts beyond the common flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opt {
    /// A flag that takes no value, such as `--expect-warm`.
    Switch(&'static str),
    /// A flag followed by a value, such as `-o FILE`: the flag and the
    /// value's name in the usage line.
    Value(&'static str, &'static str),
    /// One optional positional argument, named in the usage line.
    Operand(&'static str),
}

impl Opt {
    fn name(self) -> &'static str {
        match self {
            Opt::Switch(name) | Opt::Value(name, _) | Opt::Operand(name) => name,
        }
    }
}

/// The common flags, as the binary's own options are declared.
const COMMON: [Opt; 3] = [
    Opt::Switch("--test-scale"),
    Opt::Value("--json", "FILE"),
    Opt::Value("--store", "PATH"),
];

/// A parsed harness command line: every accepted option that was
/// given, with its value (empty for a switch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args(Vec<(&'static str, String)>);

impl Args {
    /// Parses this process's arguments against the common flags plus
    /// `own`. On a usage error, prints the error and the usage line on
    /// one line of stderr and exits with status 2.
    pub fn from_env(own: &[Opt]) -> Args {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        let bin = bin.rsplit('/').next().unwrap_or_default();
        Args::parse(argv, own).unwrap_or_else(|e| {
            eprintln!("{bin}: {e}; usage: {bin}{}", usage(own));
            std::process::exit(2);
        })
    }

    /// Parses `argv` (without the program name) against the common
    /// flags plus `own`.
    ///
    /// # Errors
    ///
    /// Names the offending argument: one that is not accepted, an
    /// option given twice, or a flag without a non-blank value after
    /// it.
    fn parse(argv: impl IntoIterator<Item = String>, own: &[Opt]) -> Result<Args, String> {
        let mut given = Args(Vec::new());
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            let opt = COMMON
                .iter()
                .chain(own)
                .copied()
                .find(|o| match o {
                    Opt::Switch(name) | Opt::Value(name, _) => *name == arg,
                    Opt::Operand(_) => !arg.starts_with('-'),
                })
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            let value = match opt {
                Opt::Switch(_) => String::new(),
                Opt::Value(flag, meta) => argv
                    .next()
                    .filter(|v| !v.trim().is_empty() && !v.starts_with('-'))
                    .ok_or_else(|| format!("{flag} needs a {meta} argument"))?,
                Opt::Operand(_) => arg,
            };
            if given.value(opt.name()).is_some() {
                return Err(format!("{} given twice", opt.name()));
            }
            given.0.push((opt.name(), value));
        }
        Ok(given)
    }

    /// `Scale::Test` under `--test-scale`, else `Scale::Paper`.
    pub fn scale(&self) -> Scale {
        if self.switch("--test-scale") {
            Scale::Test
        } else {
            Scale::Paper
        }
    }

    /// `--json FILE`: where to write the machine-readable data points.
    pub fn json(&self) -> Option<&str> {
        self.value("--json")
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The value of the option `name` (a flag, or an operand's usage
    /// name), if it was given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// The usage line's options, each in brackets.
fn usage(own: &[Opt]) -> String {
    COMMON
        .iter()
        .chain(own)
        .map(|o| match o {
            Opt::Switch(name) | Opt::Operand(name) => format!(" [{name}]"),
            Opt::Value(flag, meta) => format!(" [{flag} {meta}]"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str], own: &[Opt]) -> Result<Args, String> {
        Args::parse(argv.iter().map(|a| a.to_string()), own)
    }

    const DSE_EXPORT: [Opt; 2] = [Opt::Value("-o", "FILE"), Opt::Switch("--expect-warm")];

    #[test]
    fn no_arguments_is_a_paper_scale_run() {
        let args = parse(&[], &[]).expect("empty argv parses");
        assert_eq!(args.scale(), Scale::Paper);
        assert_eq!(args.json(), None);
        assert_eq!(args.value("--store"), None);
    }

    #[test]
    fn the_suite_invocations_parse() {
        // run_all_experiments.sh: every table binary, at either scale.
        let args = parse(&["--test-scale", "--json", "results/fig5.json"], &[]).unwrap();
        assert_eq!(args.scale(), Scale::Test);
        assert_eq!(args.json(), Some("results/fig5.json"));
        // The benchmark's suite workloads: paper scale.
        let args = parse(&["--json", "results/fig5.json"], &[]).unwrap();
        assert_eq!(args.scale(), Scale::Paper);
        // dse_export, from both.
        let argv = ["--test-scale", "--store", "s.store", "-o", "out.json"];
        let args = parse(&argv, &DSE_EXPORT).unwrap();
        assert_eq!(args.value("--store"), Some("s.store"));
        assert_eq!(args.value("-o"), Some("out.json"));
        assert!(!args.switch("--expect-warm"));
        let args = parse(&["--store", "s.store", "-o", "out.json"], &DSE_EXPORT).unwrap();
        assert_eq!(args.scale(), Scale::Paper);
        // dump_workload_asm's directory.
        let args = parse(&["results/asm"], &[Opt::Operand("DIR")]).unwrap();
        assert_eq!(args.value("DIR"), Some("results/asm"));
    }

    #[test]
    fn own_switches_are_reported() {
        let args = parse(&["--expect-warm", "--test-scale"], &DSE_EXPORT).unwrap();
        assert!(args.switch("--expect-warm"));
        assert_eq!(args.value("-o"), None);
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        let err = parse(&["--tset-scale"], &[]).unwrap_err();
        assert!(err.contains("`--tset-scale`"), "{err}");
        // Another binary's option is unknown here too.
        assert!(parse(&["--expect-warm"], &[]).is_err());
        // So is a positional argument nobody declared.
        assert!(parse(&["results/asm"], &[]).is_err());
    }

    #[test]
    fn a_flag_without_its_value_is_rejected() {
        let err = parse(&["--test-scale", "--json"], &[]).unwrap_err();
        assert_eq!(err, "--json needs a FILE argument");
        assert!(parse(&["--json", ""], &[]).is_err());
        assert!(parse(&["--store", " "], &[]).is_err());
        assert!(parse(&["-o"], &DSE_EXPORT).is_err());
        let err = parse(&["-o", "--expect-warm"], &DSE_EXPORT).unwrap_err();
        assert_eq!(err, "-o needs a FILE argument");
        assert!(parse(&["--store", "--test-scale"], &[]).is_err());
    }

    #[test]
    fn a_repeated_option_is_rejected() {
        assert!(parse(&["--test-scale", "--test-scale"], &[]).is_err());
        assert!(parse(&["--json", "a", "--json", "b"], &[]).is_err());
        assert!(parse(&["a", "b"], &[Opt::Operand("DIR")]).is_err());
    }

    #[test]
    fn the_usage_line_lists_every_option() {
        assert_eq!(
            usage(&DSE_EXPORT),
            " [--test-scale] [--json FILE] [--store PATH] [-o FILE] [--expect-warm]"
        );
    }
}
