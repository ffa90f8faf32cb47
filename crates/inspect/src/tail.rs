//! The tail/render loop of the `watch` dashboard.
//!
//! `watch` redraws a full-screen text frame whenever the trace file
//! changed and sleeps otherwise. [`Backoff`] owns the sleep policy: the
//! delay starts at the configured interval and doubles while the file
//! is idle (a finished-but-unclosed run stops burning a fixed-rate
//! poll), snapping back to the base interval on the first sign of new
//! data. [`Screen`] owns the ANSI redraw protocol (clear once, then
//! home-and-clear-below per frame, so refreshes do not flicker).

use std::time::Duration;

/// Adaptive poll delay: doubles while idle, resets when active.
#[derive(Debug)]
pub struct Backoff {
    base_ms: u64,
    max_ms: u64,
    cur_ms: u64,
}

impl Backoff {
    /// Growth cap as a multiple of the base interval.
    const MAX_FACTOR: u64 = 8;

    /// A backoff starting (and restarting) at `base_ms` milliseconds.
    pub fn new(base_ms: u64) -> Backoff {
        let base_ms = base_ms.max(1);
        Backoff {
            base_ms,
            max_ms: base_ms.saturating_mul(Self::MAX_FACTOR),
            cur_ms: base_ms,
        }
    }

    /// The delay to sleep after an idle poll; each call doubles the next
    /// one up to the cap.
    pub fn idle(&mut self) -> Duration {
        let d = Duration::from_millis(self.cur_ms);
        self.cur_ms = self.cur_ms.saturating_mul(2).min(self.max_ms);
        d
    }

    /// The source produced data: snap back to the base interval.
    pub fn active(&mut self) -> Duration {
        self.cur_ms = self.base_ms;
        Duration::from_millis(self.base_ms)
    }

    /// The current delay without mutating the schedule.
    pub fn current(&self) -> Duration {
        Duration::from_millis(self.cur_ms)
    }
}

/// In-place full-screen redraws over ANSI: `\x1b[2J` once, then
/// `\x1b[H…\x1b[J` per frame. In plain mode (`--no-color`, for CI logs
/// and pipes) frames are appended verbatim with no escape codes.
#[derive(Debug, Default)]
pub struct Screen {
    first: bool,
    plain: bool,
}

impl Screen {
    /// A screen that clears on its first draw.
    pub fn new() -> Screen {
        Screen {
            first: true,
            plain: false,
        }
    }

    /// A screen that appends frames without any ANSI escapes.
    pub fn plain() -> Screen {
        Screen {
            first: true,
            plain: true,
        }
    }

    /// Draws `text` as the whole screen, without flicker (or, in plain
    /// mode, appends the frame).
    pub fn draw(&mut self, text: &str) {
        use std::io::Write as _;
        if self.plain {
            if !self.first {
                println!();
            }
            self.first = false;
            print!("{text}");
            let _ = std::io::stdout().flush();
            return;
        }
        if self.first {
            // Clear once so the first frame starts on a clean screen.
            print!("\x1b[2J");
            self.first = false;
        }
        // Home the cursor and clear below: an in-place redraw without
        // flicker on every refresh.
        print!("\x1b[H{text}\x1b[J");
        let _ = std::io::stdout().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_while_idle_and_resets_on_activity() {
        let mut b = Backoff::new(100);
        assert_eq!(b.idle(), Duration::from_millis(100));
        assert_eq!(b.idle(), Duration::from_millis(200));
        assert_eq!(b.idle(), Duration::from_millis(400));
        assert_eq!(b.active(), Duration::from_millis(100));
        assert_eq!(b.idle(), Duration::from_millis(100));
        for _ in 0..20 {
            b.idle();
        }
        assert_eq!(b.current(), Duration::from_millis(800), "capped at 8x");
    }

    #[test]
    fn zero_interval_is_clamped() {
        let mut b = Backoff::new(0);
        assert_eq!(b.idle(), Duration::from_millis(1));
    }
}
