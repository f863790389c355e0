//! Process clocks and memory read from `/proc/self`, with plain
//! `std::fs` and no `unsafe`.

use std::fs;
use std::io;

/// Ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unparsable {what}"))
}

/// On-CPU seconds (user + system) of every thread this process has
/// run, including threads that have already exited. Resolution is one
/// tick (10 ms).
pub fn cpu_seconds() -> io::Result<f64> {
    let stat = fs::read_to_string("/proc/self/stat")?;
    parse_cpu_seconds(&stat).ok_or_else(|| invalid("/proc/self/stat"))
}

fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) may contain spaces and parentheses;
    // the remaining fields start after its last ')', at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Reset the peak-RSS watermark (`VmHWM`) to the current RSS, so the
/// next [`peak_rss_mb`] covers only what runs in between.
pub fn reset_peak_rss() -> io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size (`VmHWM`) in MiB since start-up or the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    parse_kib_field(&status, "VmHWM:")
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| invalid("VmHWM in /proc/self/status"))
}

fn parse_kib_field(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_found_after_a_command_with_spaces() {
        let stat = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 37 0 0 20";
        assert_eq!(parse_cpu_seconds(stat), Some(2.87));
    }

    #[test]
    fn status_field_is_parsed_in_kib() {
        let status = "Name:\thfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_kib_field(status, "VmHWM:"), Some(2048));
        assert_eq!(parse_kib_field(status, "VmRSS:"), None);
    }

    #[test]
    fn live_process_clocks_read() {
        let cpu = cpu_seconds().expect("/proc/self/stat readable");
        assert!(cpu >= 0.0);
        assert!(peak_rss_mb().expect("/proc/self/status readable") > 0.0);
    }
}
