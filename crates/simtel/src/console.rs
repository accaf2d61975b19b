//! Quiet-aware status output.
//!
//! Progress lines that used to be raw `eprintln!` calls route through a
//! [`Console`] so headless/CI runs can silence stderr with `--quiet` or
//! `SIMTEL_QUIET=1` without touching the stdout tables, and so every
//! status line can be mirrored onto the telemetry wall channel.

use crate::telemetry::Telemetry;
use std::sync::Arc;

/// A stderr status-line writer with an optional telemetry mirror.
#[derive(Clone, Default)]
pub struct Console {
    quiet: bool,
    mirror: Option<Arc<Telemetry>>,
}

impl std::fmt::Debug for Console {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Console")
            .field("quiet", &self.quiet)
            .field("mirror", &self.mirror.is_some())
            .finish()
    }
}

impl Console {
    /// A console that is quiet when `quiet` is set **or** the
    /// `SIMTEL_QUIET` environment variable is truthy (anything except
    /// empty, `0`, or `false`).
    pub fn from_env(quiet: bool) -> Self {
        Console {
            quiet: quiet || env_quiet(),
            mirror: None,
        }
    }

    /// An explicitly-configured console (tests).
    pub fn new(quiet: bool) -> Self {
        Console {
            quiet,
            mirror: None,
        }
    }

    /// Mirrors every status line onto `telemetry`'s wall channel as an
    /// instant mark, so a silenced run still keeps its progress history.
    #[must_use]
    pub fn with_mirror(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.mirror = Some(telemetry);
        self
    }

    /// True when stderr output is suppressed.
    pub const fn quiet(&self) -> bool {
        self.quiet
    }

    /// Emits one status line to stderr (unless quiet) and to the wall
    /// channel mirror (always, when attached).
    pub fn status(&self, line: &str) {
        if let Some(t) = &self.mirror {
            t.wall_mark("status", line);
        }
        if !self.quiet {
            eprintln!("{line}");
        }
    }
}

fn env_quiet() -> bool {
    match std::env::var("SIMTEL_QUIET") {
        Ok(v) => !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false")),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_flag_is_respected() {
        assert!(Console::new(true).quiet());
        assert!(!Console::new(false).quiet());
    }

    #[test]
    fn status_lines_mirror_to_the_wall_channel_even_when_quiet() {
        let t = Arc::new(Telemetry::with_params(8, 0));
        let c = Console::new(true).with_mirror(Arc::clone(&t));
        c.status("[simsched] done nf4/galgel");
        c.status("[repro] finished");
        assert_eq!(t.wall_events(), 2);
    }
}
