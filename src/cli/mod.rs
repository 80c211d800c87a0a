//! The `symloc` command-line tool.
//!
//! A small driver over the library for people who have a trace file and want
//! answers without writing Rust:
//!
//! ```text
//! symloc analyze <trace-file>                 locality report of any trace
//! symloc retraversal <trace-file>             interpret a trace as T = A σ(A)
//! symloc generate <kind> <m> <epochs> [file]  emit a synthetic trace
//! symloc optimize <m> [a<b ...]               best feasible re-traversal order
//! symloc sweep <m> [flags]                    (resumable) sweeps over S_m
//! symloc trace <mrc|convert|index> ...        streaming trace analysis
//! symloc job <status|resume> <checkpoint>     inspect/continue any checkpoint
//! symloc serve [--stdin|--port P] ...         multi-tenant online-MRC daemon
//! symloc partition <budget> ...               MRC-driven cache partitioner
//! ```
//!
//! The layer is **declarative**: every command is described by a
//! `CommandSpec` table (positionals + `FlagSpec` rows, `src/cli/flags.rs`),
//! and one shared parser handles the common flags — `--threads`, `--seed`,
//! `--checkpoint`, `--json` — uniformly across commands, generates each
//! command's `--help` text from the table, and rejects unknown flags with a
//! pointer to it. Command implementations live in per-command modules
//! (`basic`, `sweep`, `tracecmd`, `job`) and return their report as a
//! `String` (unit-tested that way); the thin binary in `src/bin/symloc.rs`
//! only parses `std::env::args` and prints.

mod basic;
mod flags;
mod job;
mod partition;
mod serve;
mod sweep;
mod tracecmd;

pub use basic::{
    analyze_file, analyze_trace, generate, optimize, retraversal_file, retraversal_trace_report,
};
pub use job::job;
pub use partition::partition;
pub use serve::serve;
pub use sweep::{parse_sweep_options, sweep, SweepOptions};
pub use tracecmd::{
    parse_trace_mrc_options, trace, trace_convert, trace_index, trace_mrc, TraceMrcOptions,
};

/// Errors reported by the CLI, already formatted for the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// The usage text.
#[must_use]
pub fn usage() -> String {
    "symloc — symmetric-locality trace analysis\n\
     \n\
     USAGE:\n\
     \x20 symloc analyze <trace-file>\n\
     \x20 symloc retraversal <trace-file>\n\
     \x20 symloc generate <cyclic|sawtooth|random> <m> <epochs> [out-file]\n\
     \x20 symloc optimize <m> [a<b ...]      (each a<b is a precedence constraint)\n\
     \x20 symloc sweep <m> [--stat <inversions|descents|major|displacement>]\n\
     \x20              [--model <lru|assoc:WAYS:lru|fifo|plru>] [--threads N]\n\
     \x20              [--samples BUDGET --seed S]          (stratified sampling)\n\
     \x20              [--shards K] [--checkpoint FILE [--max-shards N]] [--json]\n\
     \x20              (resumable: rank shards when exhaustive, level shards\n\
     \x20              when sampled)\n\
     \x20 symloc trace mrc <file|gen:...> [--exact] [--sample S_MAX]\n\
     \x20              [--shards N] [--threads N] [--points K] [--json]\n\
     \x20              [--checkpoint FILE [--max-chunks N]]  (resumable job of\n\
     \x20              N chunks; with --sample also N hash shards; --exact\n\
     \x20              --sample together = both curves from one pass)\n\
     \x20 symloc trace convert <file|gen:...> <out-file> [--index N]\n\
     \x20              (.sltr <-> text, streaming; both formats also get a\n\
     \x20              seekable .idx chunk index — interval N, 0 = none)\n\
     \x20 symloc trace index <file> [--interval N]\n\
     \x20              (build the seekable sidecar index for an existing file)\n\
     \x20 symloc job status <checkpoint> [--json]\n\
     \x20 symloc job resume <checkpoint> [--threads N] [--max-units N] [--json]\n\
     \x20              (dispatches on the checkpoint's recorded job kind;\n\
     \x20              --json emits a machine-readable completion report)\n\
     \x20 symloc serve [--stdin | --port P] [--budget S] [--max-tenants N]\n\
     \x20              [--checkpoint FILE [--save-every N]] [--metrics FILE]\n\
     \x20              (line-framed multi-tenant online-MRC daemon; killable,\n\
     \x20              resumes every tenant byte-identically from its checkpoint)\n\
     \x20 symloc partition <budget> [report.json ...] [--checkpoint FILE]\n\
     \x20              [--points K] [--floor N] [--cap N] [--verify] [--json]\n\
     \x20              (split a cache budget across tenant MRCs — from trace-mrc\n\
     \x20              JSON reports or a serve checkpoint — minimizing the\n\
     \x20              traffic-weighted aggregate miss ratio; --verify replays\n\
     \x20              the traces and reports predicted vs simulated)\n\
     \n\
     Per-command details: symloc <command> --help\n\
     \n\
     Trace sources: a plain-text file (one address per line), a binary\n\
     .sltr file, or a generator spec gen:<kind>:<params> with kinds\n\
     cyclic:<m>:<epochs>, sawtooth:<m>:<epochs>, strided:<m>:<stride>:<epochs>,\n\
     tiled:<m>:<tile>:<epochs>, random:<m>:<len>:<seed>, zipf:<m>:<len>:<s>:<seed>.\n"
        .to_string()
}

/// True when the argument list asks for help.
pub(crate) fn help_requested(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// Dispatches a full argument vector (excluding the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the problem; the caller prints it along
/// with [`usage`].
pub fn run(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("analyze") => {
            let Some(parsed) = basic::ANALYZE.parse(&args[1..])? else {
                return Ok(basic::ANALYZE.help());
            };
            analyze_file(parsed.positional(0, "analyze", "a trace file")?)
        }
        Some("retraversal") => {
            let Some(parsed) = basic::RETRAVERSAL.parse(&args[1..])? else {
                return Ok(basic::RETRAVERSAL.help());
            };
            retraversal_file(parsed.positional(0, "retraversal", "a trace file")?)
        }
        Some("generate") => {
            let Some(parsed) = basic::GENERATE.parse(&args[1..])? else {
                return Ok(basic::GENERATE.help());
            };
            let kind = parsed.positional(0, "generate", "a kind")?;
            let m: usize = parsed
                .positional(1, "generate", "m")?
                .parse()
                .map_err(|_| CliError("m must be a number".into()))?;
            let epochs: usize = parsed
                .positional(2, "generate", "an epoch count")?
                .parse()
                .map_err(|_| CliError("epochs must be a number".into()))?;
            generate(
                kind,
                m,
                epochs,
                parsed.positionals.get(3).map(String::as_str),
            )
        }
        Some("optimize") => {
            let Some(parsed) = basic::OPTIMIZE.parse(&args[1..])? else {
                return Ok(basic::OPTIMIZE.help());
            };
            let m: usize = parsed
                .positional(0, "optimize", "m")?
                .parse()
                .map_err(|_| CliError("m must be a number".into()))?;
            optimize(m, &parsed.positionals[1..])
        }
        Some("sweep") => sweep(&args[1..]),
        Some("trace") => trace(&args[1..]),
        Some("job") => job(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("partition") => partition(&args[1..]),
        Some("help") | None => Ok(usage()),
        Some(other) => Err(CliError(format!("unknown command {other:?}"))),
    }
}

#[cfg(test)]
pub(crate) fn sargs(spec: &str) -> Vec<String> {
    spec.split_whitespace().map(ToString::to_string).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use symloc_trace::generators::{cyclic_trace, sawtooth_trace};
    use symloc_trace::io::read_trace;

    #[test]
    fn usage_and_help() {
        assert!(usage().contains("symloc"));
        assert_eq!(run(&[]).unwrap(), usage());
        assert_eq!(run(&["help".to_string()]).unwrap(), usage());
        assert!(run(&["frobnicate".to_string()]).is_err());
    }

    #[test]
    fn every_command_answers_help() {
        for command in [
            "analyze",
            "retraversal",
            "generate",
            "optimize",
            "sweep",
            "trace",
            "trace mrc",
            "trace convert",
            "trace index",
            "job",
            "job status",
            "job resume",
            "serve",
            "partition",
        ] {
            let help = run(&sargs(&format!("{command} --help")))
                .unwrap_or_else(|e| panic!("`symloc {command} --help` failed: {e}"));
            assert!(help.contains("USAGE"), "{command}: {help}");
        }
        // Shared flags are documented by the generated help.
        let sweep_help = run(&sargs("sweep --help")).unwrap();
        for flag in ["--threads", "--seed", "--checkpoint", "--json"] {
            assert!(sweep_help.contains(flag), "{sweep_help}");
        }
    }

    #[test]
    fn run_dispatches_each_command() {
        // generate to a temp file, then analyze + retraversal it.
        let path = std::env::temp_dir().join("symloc_cli_run_test.trace");
        let path_str = path.to_string_lossy().to_string();
        let gen = run(&[
            "generate".to_string(),
            "sawtooth".to_string(),
            "6".to_string(),
            "2".to_string(),
            path_str.clone(),
        ])
        .unwrap();
        assert!(gen.contains("wrote"));
        let analyze = run(&["analyze".to_string(), path_str.clone()]).unwrap();
        assert!(analyze.contains("footprint           : 6"));
        let rt = run(&["retraversal".to_string(), path_str.clone()]).unwrap();
        assert!(rt.contains("[6 5 4 3 2 1]"));
        std::fs::remove_file(&path).ok();
        // Missing arguments are reported.
        assert!(run(&["analyze".to_string()]).is_err());
        assert!(run(&["retraversal".to_string()]).is_err());
        assert!(run(&["generate".to_string()]).is_err());
        assert!(run(&["generate".to_string(), "cyclic".to_string()]).is_err());
        assert!(run(&["optimize".to_string()]).is_err());
        assert!(run(&["optimize".to_string(), "abc".to_string()]).is_err());
        assert!(run(&["sweep".to_string(), "4".to_string()])
            .unwrap()
            .contains("permutations aggregated : 24"));
        assert!(run(&["sweep".to_string()]).is_err());
        assert!(run(&["analyze".to_string(), "/no/such/file".to_string()]).is_err());
        assert!(run(&["job".to_string()]).is_err());
        // The basic commands go through the declarative parser too:
        // unknown flags and extra positionals are uniform errors now.
        assert!(run(&sargs("analyze a.trace --bogus")).is_err());
        assert!(run(&sargs("analyze a.trace b.trace")).is_err());
        assert!(run(&sargs("generate cyclic 4 2 out.trace extra")).is_err());
    }

    #[test]
    fn generate_and_read_back() {
        let path = std::env::temp_dir().join("symloc_cli_generate_mod_test.trace");
        let path_str = path.to_string_lossy().to_string();
        let to_file = generate("cyclic", 5, 3, Some(&path_str)).unwrap();
        assert!(to_file.contains("wrote"));
        let back = read_trace(&path).unwrap();
        assert_eq!(back, cyclic_trace(5, 3));
        std::fs::remove_file(&path).ok();
        let _ = sawtooth_trace(2, 1); // keep the import exercised
    }
}
