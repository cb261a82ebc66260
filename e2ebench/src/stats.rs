//! Small numeric and process helpers: medians, percentiles, peak memory.

use std::time::Duration;

/// The median of `values` (mean of the middle pair for an even count).
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `0.0..=1.0`) of an ascending sample.
pub(crate) fn percentile(ascending: &[f64], p: f64) -> f64 {
    if ascending.is_empty() {
        return f64::NAN;
    }
    let rank = (p * ascending.len() as f64).ceil() as usize;
    ascending[rank.clamp(1, ascending.len()) - 1]
}

pub(crate) fn millis(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// A reading of the machine's CPU time counters (the `cpu` line of
/// `/proc/stat`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CpuClock {
    steal: u64,
    total: u64,
}

impl CpuClock {
    pub(crate) fn now() -> Self {
        let fields: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|stat| {
                let line = stat.lines().next()?.to_owned();
                Some(
                    line.split_whitespace()
                        .skip(1)
                        .take(8)
                        .filter_map(|f| f.parse().ok())
                        .collect(),
                )
            })
            .unwrap_or_default();
        // user nice system idle iowait irq softirq steal
        CpuClock { steal: fields.get(7).copied().unwrap_or(0), total: fields.iter().sum() }
    }

    /// Share of all CPU time since `self` that the hypervisor stole: time
    /// this VM's CPUs were ready to run and the host ran something else.
    pub(crate) fn steal_share(&self) -> f64 {
        let now = CpuClock::now();
        let total = now.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            now.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}

/// `VmHWM` (peak resident set) of a process, in KiB, from `/proc/<pid>/status`.
fn vm_hwm_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process, in MiB.
pub(crate) fn own_peak_rss_mib() -> f64 {
    vm_hwm_kib("self").unwrap_or(0) as f64 / 1024.0
}

/// Summed peak resident set of this process's live children (the fleet's
/// workers), in MiB. Read before the children exit.
pub(crate) fn children_peak_rss_mib() -> f64 {
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else { return 0.0 };
    let mut total_kib = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().filter(|n| n.bytes().all(|b| b.is_ascii_digit())) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else { continue };
        // `pid (comm) state ppid ...`: comm may hold spaces, so split after `)`.
        let ppid = stat.rsplit_once(')').and_then(|(_, rest)| rest.split_whitespace().nth(1));
        if ppid == Some(me.as_str()) {
            total_kib += vm_hwm_kib(pid).unwrap_or(0);
        }
    }
    total_kib as f64 / 1024.0
}

/// Escapes `text` as a JSON string literal.
pub(crate) fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (`null` otherwise), with every digit kept.
pub(crate) fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.5), 50.0);
        assert_eq!(percentile(&sample, 0.99), 99.0);
        assert_eq!(percentile(&sample, 1.0), 100.0);
    }

    #[test]
    fn json_helpers() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(1.5), "1.5");
    }
}
