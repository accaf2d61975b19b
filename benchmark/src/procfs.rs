//! The two `/proc` readings the end-to-end runs take: the harness's own
//! reaped-children CPU time, and a child's peak resident set.

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 by the Linux user-space ABI).
pub const USER_HZ: f64 = 100.0;

/// `cutime + cstime` (user and system ticks of reaped children) from the
/// text of a `/proc/<pid>/stat` file. The command name in field 2 may hold
/// spaces and parentheses, so fields are counted after its last `)`.
pub fn children_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // Fields after the name start at field 3 (state); cutime and cstime
    // are fields 16 and 17.
    let mut fields = rest.split_whitespace().skip(13);
    let cutime: u64 = fields.next()?.parse().ok()?;
    let cstime: u64 = fields.next()?.parse().ok()?;
    Some(cutime + cstime)
}

/// CPU ticks (user + system, [`USER_HZ`] per second) of every child this
/// process has reaped.
pub fn reaped_children_ticks() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    children_ticks(&stat).ok_or_else(|| "malformed /proc/self/stat".to_string())
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` file,
/// in kB. Absent once the process has exited and released its memory.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kb = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kb)
}

/// The current peak resident set of process `pid` in kB, if readable.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    vm_hwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_reads_cutime_and_cstime() {
        let stat = "4242 (repro) S 1 4242 4242 0 -1 4194560 812 0 0 0 \
                    1375 24 610 31 20 0 3 0 1234 56789 123 18446744073709551615";
        assert_eq!(children_ticks(stat), Some(641));
    }

    #[test]
    fn stat_parser_survives_spaces_and_parens_in_the_name() {
        let stat = "7 (a b) (c)) R 1 7 7 0 -1 0 0 0 0 0 5 6 70 8 20 0";
        assert_eq!(children_ticks(stat), Some(78));
    }

    #[test]
    fn stat_parser_rejects_truncated_lines() {
        assert_eq!(children_ticks("7 (x) R 1 7 7 0"), None);
        assert_eq!(children_ticks("no parens at all"), None);
    }

    #[test]
    fn status_parser_reads_vmhwm_in_kb() {
        let status =
            "Name:\trepro\nVmPeak:\t  912340 kB\nVmHWM:\t  183512 kB\nVmRSS:\t  170000 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(183_512));
    }

    #[test]
    fn status_parser_handles_exited_processes() {
        // A zombie's status has no Vm* lines.
        assert_eq!(vm_hwm_kb("Name:\trepro\nState:\tZ (zombie)\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_readings_work_on_this_process() {
        assert!(peak_rss_kb(std::process::id()).is_some_and(|kb| kb > 0));
        assert!(reaped_children_ticks().is_ok());
    }
}
