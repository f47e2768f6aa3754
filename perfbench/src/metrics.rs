//! The metric dictionary (names and units; definitions live in the
//! benchmark's README) and the record a run fills in and prints.

use std::collections::BTreeMap;
use std::fmt::Display;

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn d(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// What a user of the engine sees. Printed by untraced runs.
pub const END_TO_END: &[Def] = &[
    d("setup_s", "s"),
    d("qps", "1/s"),
    d("p50_us", "us"),
    d("p99_us", "us"),
    d("loaded_p50_us", "us"),
    d("loaded_p99_us", "us"),
    d("served_max_qps", "1/s"),
    d("cpu_us_per_query", "us"),
    d("ok_frac", "ratio"),
    d("peak_rss_mib", "MiB"),
    d("index_bytes", "B"),
    d("complete_frac", "ratio"),
    d("error_factor", "ratio"),
];

/// One layer at a time, named `<layer>.<metric>`. Printed by traced runs.
pub const PER_LAYER: &[Def] = &[
    d("server.send_us", "us"),
    d("server.first_reply_us", "us"),
    d("server.reply_spread_us", "us"),
    d("server.queue_depth_mean", "count"),
    d("server.queue_depth_max", "count"),
    d("server.bodies_per_drain", "count"),
    d("server.busy_rejections", "count"),
    d("process.sys_frac", "ratio"),
    d("process.ctx_switches_per_query", "count"),
    d("bench.sender_lag_p99_us", "us"),
    d("query.knn_us", "us"),
    d("query.self_us_per_query", "us"),
    d("query.refinements_per_query", "count"),
    d("query.queue_pushes_per_query", "count"),
    d("query.max_queue_mean", "count"),
    d("query.pq_frac", "ratio"),
    d("query.approx_us", "us"),
    d("query.approx_candidates_per_query", "count"),
    d("query.approx_useful_ratio", "ratio"),
    d("router.knn_us", "us"),
    d("router.self_us_per_query", "us"),
    d("router.shards_expanded_mean", "count"),
    d("router.frontier_dijkstra_frac", "ratio"),
    d("router.candidates_per_query", "count"),
    d("router.prune_ratio", "ratio"),
    d("router.degraded_total", "count"),
    d("core.entry_hit_rate", "ratio"),
    d("core.entry_decodes_per_query", "count"),
    d("core.tier_misses_per_query", "count"),
    d("core.build_s", "s"),
    d("core.write_s", "s"),
    d("core.open_s", "s"),
    d("core.shard_build_s", "s"),
    d("core.frontier_build_s", "s"),
    d("storage.pool_hit_rate", "ratio"),
    d("storage.pool_misses_per_query", "count"),
    d("storage.bytes_read_per_query", "B"),
    d("storage.evictions_per_query", "count"),
    d("storage.read_us_per_query", "us"),
    d("storage.read_frac", "ratio"),
    d("storage.self_us_per_query", "us"),
    d("storage.prefetch_useful_ratio", "ratio"),
    d("storage.retries", "count"),
    d("storage.faults_seen", "count"),
    d("pcp.build_s", "s"),
    d("pcp.batch_sssp", "count"),
    d("pcp.pairs", "count"),
    d("pcp.pair_hit_rate", "ratio"),
    d("pcp.pool_misses_per_query", "count"),
    d("pcp.self_us_per_query", "us"),
    d("pcp.mean_rel_error", "ratio"),
    d("network.generate_s", "s"),
    d("network.partition_s", "s"),
    d("trace.overhead_frac", "ratio"),
];

fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    def(name).map(|m| m.unit)
}

/// One run's results: metric values (with sample counts where a value is
/// a statistic over samples), the configuration stamps that decide which
/// records may be compared, and the correctness tallies.
#[derive(Debug, Default)]
pub struct Record {
    pub values: BTreeMap<&'static str, (f64, Option<usize>)>,
    pub stamps: Vec<(&'static str, String)>,
    /// Queries issued, including the checked sample.
    pub attempted: u64,
    /// Queries that errored, were shed, or failed the correctness gate.
    pub failed: u64,
    /// Gate verdicts that disagreed with the reference.
    pub mismatches: Vec<String>,
}

impl Record {
    /// Sets metric `name`; panics on a name outside the dictionary.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_n(name, value, None);
    }

    /// Sets metric `name` with the number of samples behind it.
    pub fn set_n(&mut self, name: &str, value: f64, samples: Option<usize>) {
        let m = def(name).unwrap_or_else(|| panic!("metric {name} is not in the dictionary"));
        self.values.insert(m.name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    pub fn stamp(&mut self, key: &'static str, value: impl Display) {
        self.stamps.push((key, value.to_string()));
    }

    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The result line: every metric of `defs` by name with its unit.
    /// Errors when one is missing or not a finite number.
    pub fn result_line(&self, defs: &[Def]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(defs.len());
        for m in defs {
            let (v, _) =
                self.values.get(m.name).ok_or_else(|| format!("{} not measured", m.name))?;
            if !v.is_finite() {
                return Err(format!("{} is not finite: {v}", m.name));
            }
            parts.push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, v, m.unit));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }

    /// The full record: stamps, every metric measured with its sample
    /// count, and any gate mismatches.
    pub fn record_line(&self) -> String {
        let stamps: Vec<String> =
            self.stamps.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v))).collect();
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(k, (v, n))| {
                let n = n.map_or("null".to_string(), |n| n.to_string());
                format!(
                    "\"{k}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {n}}}",
                    if v.is_finite() { v.to_string() } else { "null".to_string() },
                    unit_of(k).unwrap_or("")
                )
            })
            .collect();
        let mismatches: Vec<String> =
            self.mismatches.iter().map(|m| format!("\"{}\"", escape(m))).collect();
        format!(
            "{{\"record\": {{{}}}, \"metrics\": {{{}}}, \"mismatches\": [{}]}}",
            stamps.join(", "),
            metrics.join(", "),
            mismatches.join(", ")
        )
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
        }
    }

    #[test]
    fn result_line_lists_every_metric_and_refuses_gaps() {
        let mut r = Record { attempted: 3, ..Default::default() };
        for m in END_TO_END {
            r.set(m.name, 1.5);
        }
        let line = r.result_line(END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(r.result_line(PER_LAYER).is_err());
        r.set("qps", f64::NAN);
        assert!(r.result_line(END_TO_END).is_err());
        r.mismatch("x".into());
        assert!(!r.correct());
    }
}
