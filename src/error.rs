//! The workspace-wide error taxonomy.
//!
//! Every crate in the workspace reports failures through its own typed
//! error — [`bcn::BcnError`] for model validation, [`odesolve::SolveError`]
//! for the integrators, [`phaseplane::poincare::PoincareError`] for the
//! return-map analysis, [`dcesim::wire::WireError`] for the BCN frame
//! codec, [`dcesim::error::ConfigError`] for simulator configuration, and
//! [`cli::CliError`] for the command-line front end. This module unifies
//! them behind one conversion layer so binaries and integration tests can
//! handle "anything the workspace can fail with" in a single match, and
//! maps each family onto a distinct process exit code.

use std::fmt;

/// Any failure a workspace API can report, unified.
///
/// The enum is `#[non_exhaustive]`: new failure families may appear as
/// the workspace grows, so downstream matches need a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The user asked for something the tools do not understand
    /// (unknown command, malformed flag). Exit code 2.
    Usage(String),
    /// The BCN fluid-model parameters were rejected. Exit code 3.
    Model(bcn::BcnError),
    /// An analysis failed on otherwise-valid input. Exit code 3.
    Analysis(String),
    /// An ODE integration failed. Exit code 4.
    Solver(odesolve::SolveError),
    /// The Poincaré return-map analysis failed. Exit code 5.
    Poincare(phaseplane::poincare::PoincareError),
    /// A BCN wire frame failed to encode or decode. Exit code 6.
    Wire(dcesim::wire::WireError),
    /// A simulator configuration was rejected. Exit code 7.
    SimConfig(dcesim::error::ConfigError),
    /// A filesystem operation failed. Exit code 8.
    Io(std::io::Error),
    /// A batch run failed under fail-fast semantics. Exit code 9.
    Batch(String),
    /// The batch watchdog demoted seeds under fail-fast semantics.
    /// Exit code 10.
    Timeout(String),
    /// A postmortem replay did not reproduce the recorded failure.
    /// Exit code 11.
    Replay(String),
}

impl Error {
    /// The process exit code for this failure family: 2 usage, 3
    /// model/analysis, 4 solver, 5 Poincaré, 6 wire codec, 7 simulator
    /// config, 8 I/O, 9 batch fail-fast, 10 watchdog timeout, 11 replay
    /// mismatch.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            Error::Usage(_) => 2,
            Error::Model(_) | Error::Analysis(_) => 3,
            Error::Solver(_) => 4,
            Error::Poincare(_) => 5,
            Error::Wire(_) => 6,
            Error::SimConfig(_) => 7,
            Error::Io(_) => 8,
            Error::Batch(_) => 9,
            Error::Timeout(_) => 10,
            Error::Replay(_) => 11,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Usage(msg) => write!(f, "usage error: {msg}"),
            Error::Model(e) => write!(f, "model error: {e}"),
            Error::Analysis(msg) => write!(f, "analysis error: {msg}"),
            Error::Solver(e) => write!(f, "solver error: {e}"),
            Error::Poincare(e) => write!(f, "poincare error: {e}"),
            Error::Wire(e) => write!(f, "wire error: {e}"),
            Error::SimConfig(e) => write!(f, "simulation config error: {e}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Batch(msg) => write!(f, "batch error: {msg}"),
            Error::Timeout(msg) => write!(f, "watchdog timeout: {msg}"),
            Error::Replay(msg) => write!(f, "replay mismatch: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Model(e) => Some(e),
            Error::Solver(e) => Some(e),
            Error::Poincare(e) => Some(e),
            Error::Wire(e) => Some(e),
            Error::SimConfig(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::Usage(_)
            | Error::Analysis(_)
            | Error::Batch(_)
            | Error::Timeout(_)
            | Error::Replay(_) => None,
        }
    }
}

impl From<bcn::BcnError> for Error {
    fn from(e: bcn::BcnError) -> Self {
        Error::Model(e)
    }
}

impl From<odesolve::SolveError> for Error {
    fn from(e: odesolve::SolveError) -> Self {
        Error::Solver(e)
    }
}

impl From<phaseplane::poincare::PoincareError> for Error {
    fn from(e: phaseplane::poincare::PoincareError) -> Self {
        Error::Poincare(e)
    }
}

impl From<dcesim::wire::WireError> for Error {
    fn from(e: dcesim::wire::WireError) -> Self {
        Error::Wire(e)
    }
}

impl From<dcesim::error::ConfigError> for Error {
    fn from(e: dcesim::error::ConfigError) -> Self {
        Error::SimConfig(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<cli::CliError> for Error {
    fn from(e: cli::CliError) -> Self {
        match e {
            cli::CliError::Usage(msg) => Error::Usage(msg),
            cli::CliError::Analysis(msg) => Error::Analysis(msg),
            cli::CliError::Solver(e) => Error::Solver(e),
            cli::CliError::Sim(e) => Error::SimConfig(e),
            cli::CliError::Batch(msg) => Error::Batch(msg),
            cli::CliError::Timeout(msg) => Error::Timeout(msg),
            cli::CliError::Replay(msg) => Error::Replay(msg),
            cli::CliError::Io(e) => Error::Io(e),
            // `CliError` is non-exhaustive: future variants fall back to
            // the analysis family rather than breaking the build.
            other => Error::Analysis(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_per_family() {
        let errors: Vec<Error> = vec![
            Error::Usage("u".into()),
            Error::Analysis("a".into()),
            Error::Solver(odesolve::SolveError::StepSizeUnderflow { t: 0.0, h: 1e-30 }),
            Error::Io(std::io::Error::other("io")),
            Error::Batch("b".into()),
            Error::Timeout("t".into()),
            Error::Replay("r".into()),
        ];
        let codes: Vec<i32> = errors.iter().map(Error::exit_code).collect();
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len(), "families share an exit code: {codes:?}");
        assert!(codes.iter().all(|c| *c >= 2), "exit codes must leave 0/1 free");
    }

    #[test]
    fn cli_errors_map_onto_the_taxonomy() {
        let e = Error::from(cli::CliError::Usage("bad flag".into()));
        assert_eq!(e.exit_code(), 2);
        let e = Error::from(cli::CliError::Batch("seed 3 failed".into()));
        assert_eq!(e.exit_code(), 9);
        let e = Error::from(cli::CliError::Timeout("seed 3 hit the watchdog".into()));
        assert_eq!(e.exit_code(), 10);
        assert!(e.to_string().contains("watchdog"));
        let e = Error::from(cli::CliError::Replay("seed 3 diverged".into()));
        assert_eq!(e.exit_code(), 11);
        assert!(e.to_string().contains("replay"));
        let e = Error::from(cli::CliError::Sim(dcesim::error::ConfigError::new(
            "capacity",
            "must be positive",
        )));
        assert_eq!(e.exit_code(), 7);
        assert!(e.to_string().contains("capacity"));
    }

    #[test]
    fn contradictory_hybrid_guard_bounds_exit_as_a_sim_config_error() {
        let args: Vec<String> =
            "packet --engine hybrid --hybrid-guard min-ff=0.01,max-ff=0.005 --t-end 1.0"
                .split_whitespace()
                .map(String::from)
                .collect();
        let e = Error::from(cli::run(&args).unwrap_err());
        assert_eq!(e.exit_code(), 7);
        assert!(e.to_string().contains("hybrid.max_ff"), "{e}");
    }

    #[test]
    fn leaf_errors_convert_and_keep_their_message() {
        let wire = dcesim::wire::decode(&[0u8; 4]).unwrap_err();
        let e = Error::from(wire);
        assert_eq!(e.exit_code(), 6);
        let model = bcn::BcnParams { capacity: -1.0, ..bcn::BcnParams::paper_defaults() }
            .validate()
            .unwrap_err();
        let e = Error::from(model);
        assert_eq!(e.exit_code(), 3);
        assert!(std::error::Error::source(&e).is_some());
    }
}
