//! Host facts and run provenance.

use pop_bench::provenance::Provenance;

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Size in bytes of cache `index` of CPU 0 (2 = L2, 3 = L3), if exposed.
fn cache_bytes(index: u32) -> Option<u64> {
    let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
    let s = std::fs::read_to_string(path).ok()?;
    let s = s.trim();
    let (num, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1024),
        b'M' => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * scale)
}

fn json_opt(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |v| v.to_string())
}

/// Keep `git` (run by [`Provenance::collect`]) from searching above the
/// working directory for a repository. Call before any thread starts.
pub fn confine_git_to_cwd() {
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
}

/// One JSON object describing what produced the result: the repository's
/// own provenance record plus the host core count, the seed, the sample
/// count behind the percentiles, and the workload's computed working set
/// next to the cache sizes.
pub fn provenance_line(
    workload: &str,
    seed: u64,
    trace: bool,
    samples: usize,
    working_set_bytes: u64,
) -> String {
    let prov = Provenance::collect();
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    format!(
        "{{\"perfbench_provenance\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \
         \"trace\": {trace}, \"op_samples\": {samples}, \"host_cores\": {cores}, \"repo\": {}, \
         \"working_set_bytes_computed\": {working_set_bytes}, \"l2_bytes\": {}, \
         \"l3_bytes\": {}}}}}",
        prov.json(),
        json_opt(cache_bytes(2)),
        json_opt(cache_bytes(3)),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_rss_is_positive() {
        assert!(super::peak_rss_mb().unwrap() > 0.0);
    }
}
