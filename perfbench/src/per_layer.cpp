#include "per_layer.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

namespace {

struct CatalogEntry {
  const char* name;
  const char* unit;
};

// Must match "per_layer" in BENCHMARK.json.
const CatalogEntry kCatalog[] = {
    {"service.submit_us", "us"},
    {"service.ops_per_commit", "count"},
    {"service.apply_p99_us", "us"},
    {"service.replay_p99_us", "us"},
    {"service.grace_p99_us", "us"},
    {"service.publish_p99_us", "us"},
    {"service.grace_yields_per_commit", "count"},
    {"service.replica_rebuilds", "count"},
    {"service.snapshot_us", "us"},
    {"service.query_self_us", "us"},
    {"core.update_ns_per_pt", "ns/pt"},
    {"core.knn_us", "us"},
    {"core.range_list_ns_per_pt", "ns/pt"},
    {"core.range_count_us", "us"},
    {"core.build_s", "s"},
    {"arena.bytes_per_live_byte", "ratio"},
    {"parallel.foreign_jobs_per_op", "count"},
    {"parallel.steals_per_op", "count"},
    {"parallel.parks_per_s", "1/s"},
    {"durability.fsync_p99_us", "us"},
    {"durability.wal_bytes_per_user_byte", "ratio"},
    {"durability.checkpoint_s", "s"},
    {"durability.tail_records", "count"},
    {"query_cache.hit_ratio", "ratio"},
    {"query_cache.cross_epoch_hits", "count"},
    {"query_cache.torn_skips", "count"},
    {"loadgen.lag_p99_ms", "ms"},
    {"loadgen.ops_attempted", "count"},
};

std::string untraced_path(const char* workload, const Options& opt) {
  return opt.work_dir + "/" + workload + "-untraced.txt";
}

}  // namespace

std::vector<Metric> layer_metrics(const LayerValues& v, const char* workload) {
  std::vector<Metric> out;
  std::string missing;
  for (const auto& e : kCatalog) {
    const auto it = v.find(e.name);
    if (it == v.end()) {
      missing += std::string(missing.empty() ? "" : " ") + e.name;
      out.push_back({e.name, 0, e.unit});
    } else {
      out.push_back({e.name, it->second, e.unit});
    }
  }
  if (!missing.empty()) {
    note("per-layer metrics not exercised by %s (printed as 0): %s", workload,
         missing.c_str());
  }
  // Layers no workload of BENCHMARK.json exercises (net.*, from the
  // hotspot workloads) are printed as notes.
  for (const auto& [name, value] : v) {
    const bool listed = std::any_of(std::begin(kCatalog), std::end(kCatalog),
                                    [&](const CatalogEntry& e) { return name == e.name; });
    if (!listed) note("per-layer (not in BENCHMARK.json): %s = %.6g", name.c_str(), value);
  }
  return out;
}

void save_untraced(const char* workload, const Options& opt,
                   const std::vector<Metric>& e2e) {
  std::ofstream f(untraced_path(workload, opt));
  f << "seed " << opt.seed << "\n";
  for (const auto& m : e2e) f << m.name << " " << m.value << "\n";
}

void report_tracing(const char* workload, const Options& opt,
                    const std::vector<Metric>& e2e) {
  Tracer& tr = Tracer::instance();
  for (const auto& s : tr.summarize(/*by_layer=*/true)) {
    note("layer self time: %-12s spans=%llu total_ms=%.3f self_ms=%.3f",
         s.name.c_str(), static_cast<unsigned long long>(s.count), s.total_ms,
         s.self_ms);
  }
  for (const auto& s : tr.summarize(/*by_layer=*/false)) {
    note("span self time: %-28s spans=%llu total_ms=%.3f self_ms=%.3f",
         s.name.c_str(), static_cast<unsigned long long>(s.count), s.total_ms,
         s.self_ms);
  }
  const std::string dump = opt.work_dir + "/" + workload + "-trace.json";
  if (tr.write_json(dump)) note("span dump: %s", dump.c_str());

  // Tracing overhead: this (traced) run's end-to-end figures against the
  // last untraced run of the same workload in this build directory.
  std::ifstream f(untraced_path(workload, opt));
  if (!f) {
    note("tracing overhead: no untraced run of %s recorded yet", workload);
    return;
  }
  std::map<std::string, double> base;
  std::string key;
  double val = 0;
  std::string seed_line;
  std::getline(f, seed_line);
  while (f >> key >> val) base[key] = val;
  for (const auto& m : e2e) {
    const auto it = base.find(m.name);
    if (it == base.end() || it->second == 0) continue;
    note("tracing overhead: %s traced=%.6g untraced=%.6g (%+.1f%%; untraced %s)",
         m.name.c_str(), m.value, it->second,
         100.0 * (m.value - it->second) / it->second, seed_line.c_str());
  }
}

}  // namespace perfbench
