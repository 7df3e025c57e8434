//! Metrics, statistics, the host fingerprint and a small JSON writer.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ms`, `MB`, `count`, …).
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// One correctness check and its verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gate {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Why it failed (empty when it held).
    pub detail: String,
}

impl Gate {
    /// A verdict; `detail` is kept only on failure.
    #[must_use]
    pub fn check(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ok,
            detail: if ok { String::new() } else { detail.into() },
        }
    }
}

/// Median of `v` (the mean of the middle two for even lengths); 0 when
/// empty.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile (`p` in `(0, 1]`); 0 when empty.
#[must_use]
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// SplitMix64: the benchmark's only source of input variation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * u
    }

    /// Uniform index in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A `kB` field of `/proc/self/status`, in MB (0 when unreadable).
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process, in MB (`VmRSS`).
#[must_use]
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Resets the peak resident set size to the current one (Linux
/// `clear_refs` code 5); returns whether the kernel took it. When it
/// did not, [`peak_rss_mb`] keeps counting from process start.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Where a record was produced.
#[derive(Clone, Debug)]
pub struct Host {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu: String,
    /// Size of the last-level cache in bytes (0 when unknown).
    pub llc_bytes: u64,
    /// Level of that cache.
    pub llc_level: u32,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Source revision (git commit, or a hash of the source tree).
    pub commit: String,
}

impl Host {
    /// Reads the fingerprint from `/proc` and `/sys`.
    #[must_use]
    pub fn probe(commit: &str) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let (llc_level, llc_bytes) = last_level_cache();
        Self {
            nproc,
            cpu,
            llc_bytes,
            llc_level,
            rustc: env!("PERFBENCH_RUSTC").to_owned(),
            commit: commit.to_owned(),
        }
    }
}

fn last_level_cache() -> (u32, u64) {
    let mut best = (0u32, 0u64);
    let Ok(dir) = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache") else {
        return best;
    };
    for entry in dir.flatten() {
        let p = entry.path();
        let read = |f: &str| std::fs::read_to_string(p.join(f)).map(|s| s.trim().to_owned());
        let (Ok(level), Ok(size)) = (read("level"), read("size")) else {
            continue;
        };
        if read("type").is_ok_and(|t| t == "Instruction") {
            continue;
        }
        let level: u32 = level.parse().unwrap_or(0);
        let bytes = parse_size(&size);
        if (level, bytes) > best {
            best = (level, bytes);
        }
    }
    best
}

fn parse_size(s: &str) -> u64 {
    let (num, mult) = match s.chars().last() {
        Some('K') => (&s[..s.len() - 1], 1u64 << 10),
        Some('M') => (&s[..s.len() - 1], 1 << 20),
        Some('G') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().map_or(0, |n| n * mult)
}

/// A JSON value, written by hand to keep the benchmark dependency-free.
#[derive(Clone, Debug)]
pub enum Json {
    /// A number; non-finite values are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serialises on one line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Self::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Self::Num(_) => out.push_str("null"),
            Self::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Arr(v) => {
                out.push('[');
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write(out);
                }
                out.push(']');
            }
            Self::Obj(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Self::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// `{"name": {"value": …, "unit": …}, …}` for a metric list.
#[must_use]
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Num(m.value)),
                        ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn json_escapes_and_drops_non_finite() {
        let j = Json::Obj(vec![
            ("a\"b".to_owned(), Json::Num(1.5)),
            ("c".to_owned(), Json::Num(f64::NAN)),
        ]);
        assert_eq!(j.render(), r#"{"a\"b":1.5,"c":null}"#);
    }

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_size("32768K"), 32 << 20);
        assert_eq!(parse_size("2M"), 2 << 20);
    }
}
