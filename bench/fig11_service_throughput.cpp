// Fig 11 (extension, not in the paper): psi::service throughput.
//
// Measures SpatialService end-to-end ops/sec as a function of shard count K
// and read/write mix, over an OSM-like base dataset. Client threads submit
// updates through the queue (background group committer enabled) and run
// queries through snapshots — the production read path.
//
// Backend selection (registry-driven):
//   ./fig11_service_throughput                  # templated SPaC-Z fast path
//   ./fig11_service_throughput --backend pkd    # any BackendRegistry name,
//                                               # via the AnyIndex service
//   ./fig11_service_throughput --backend mixed  # heterogeneous: SPaC-Z hot
//                                               # shards + log cold shards
//   ./fig11_service_throughput --wal on         # arm the write-ahead log
//                                               # (fsync'd commit records in
//                                               # a temp dir) for every cell
// (PSI_BENCH_BACKEND env is an alternative to the --backend flag.)
//
// The default wal-off run appends one wal-on row (read%=50, default
// backend) so the fsync-before-publish cost is always measured alongside;
// the regression gate keys on the "durability" JSON field and never
// compares across modes.
//
// Output: a fixed-width table for humans plus one JSON line per cell
// (prefix "BENCH_JSON ") in the flat shape of ServiceStats::json(), so
// BENCH_*.json trajectories can track service throughput across PRs:
//
//   BENCH_JSON {"bench":"fig11_service_throughput","backend":"SPaC-Z",
//               "shards":8,"read_pct":90,"clients":4,"n":...,"ops":...,
//               "seconds":...,"ops_per_sec":...,"stats":{...}}
//
// Knobs: PSI_BENCH_N (base points), PSI_BENCH_Q (ops per cell),
// PSI_BENCH_CLIENTS (client threads), PSI_NUM_WORKERS (scheduler).
// PSI_TRACE_FILE=<path> turns on pipeline tracing and dumps a Chrome-trace
// JSON of the whole run (commit stages, query fan-out) on exit.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "psi/telemetry/trace.h"

namespace {

using namespace psi;
using namespace psi::bench;
using namespace psi::service;

int bench_clients(int fallback) {
  if (const char* s = std::getenv("PSI_BENCH_CLIENTS")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return fallback;
}

struct Cell {
  std::size_t shards;
  int read_pct;
  std::size_t ops;
  double seconds;
  ServiceStats stats;

  double ops_per_sec() const { return seconds > 0 ? static_cast<double>(ops) / seconds : 0; }
};

// One client's slice of a mixed workload: `read_pct`% snapshot queries
// (alternating 10-NN and range_count), the rest queued inserts/deletes
// (2:1). Updates go through futures; the last batch is awaited so the cell
// measures committed work, not queue depth.
template <typename Service>
void run_client(Service& svc, int id, std::size_t ops, int read_pct,
                const std::vector<Point2>& fresh,
                std::atomic<std::uint64_t>& sink) {
  Rng rng(static_cast<std::uint64_t>(id) * 7919 + 13);
  std::vector<std::future<Result<std::int64_t, 2>>> futs;
  futs.reserve(ops);
  std::uint64_t local = 0;
  std::size_t next_fresh = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    const bool read =
        static_cast<int>(rng.ith_bounded(2 * i, 100)) < read_pct;
    if (read) {
      auto snap = svc.snapshot();
      Point2 q{{static_cast<std::int64_t>(rng.ith_bounded(4 * i, kMax2)),
                static_cast<std::int64_t>(rng.ith_bounded(4 * i + 1, kMax2))}};
      if (i % 2 == 0) {
        local += snap.knn(q, 10).size();
      } else {
        Box2 b;
        const std::int64_t half = kMax2 / 100;
        for (int d = 0; d < 2; ++d) {
          b.lo[d] = std::max<std::int64_t>(0, q[d] - half);
          b.hi[d] = std::min<std::int64_t>(kMax2, q[d] + half);
        }
        local += snap.range_count(b);
      }
    } else {
      const Point2& p = fresh[next_fresh++ % fresh.size()];
      if (next_fresh % 3 == 0) {
        futs.push_back(svc.submit_delete(p));
      } else {
        futs.push_back(svc.submit_insert(p));
      }
    }
  }
  for (auto& f : futs) local += f.get().epoch != 0 ? 1 : 0;
  sink.fetch_add(local, std::memory_order_relaxed);
}

template <typename Service, typename MakeService>
Cell run_cell(MakeService&& make_service, std::size_t shards, int read_pct,
              std::size_t n, std::size_t ops_per_client, int clients,
              const std::vector<Point2>& base,
              const std::string& wal_dir = {}) {
  ServiceConfig cfg;
  cfg.initial_shards = shards;
  // Keep the topology fixed so the cell isolates shard-count scaling.
  cfg.split_threshold = n * 8;
  cfg.merge_threshold = 1;
  if (!wal_dir.empty()) {
    std::filesystem::remove_all(wal_dir);
    cfg.durability.enabled = true;
    cfg.durability.dir = wal_dir;
  }
  Service svc = make_service(cfg);
  svc.build(base);
  svc.start();

  // Per-client fresh points (disjoint from base and each other).
  std::vector<std::vector<Point2>> fresh(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    fresh[static_cast<std::size_t>(c)] = datagen::uniform<2>(
        ops_per_client, 0xf00d + static_cast<std::uint64_t>(c), kMax2);
  }

  std::atomic<std::uint64_t> sink{0};
  Timer t;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      run_client(svc, c, ops_per_client, read_pct,
                 fresh[static_cast<std::size_t>(c)], sink);
    });
  }
  for (auto& th : threads) th.join();
  svc.flush();
  const double secs = t.seconds();
  svc.stop();

  Cell cell;
  cell.shards = shards;
  cell.read_pct = read_pct;
  cell.ops = ops_per_client * static_cast<std::size_t>(clients);
  cell.seconds = secs;
  cell.stats = svc.stats();
  if (sink.load() == 0) std::printf("(unexpected zero sink)\n");
  return cell;
}

std::string backend_choice(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--backend") == 0) return argv[i + 1];
  }
  if (const char* s = std::getenv("PSI_BENCH_BACKEND")) return s;
  return "";
}

bool wal_choice(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--wal") == 0) {
      return std::strcmp(argv[i + 1], "on") == 0;
    }
  }
  return false;  // durability is opt-in, same as the service default
}

std::string wal_dir_for(std::size_t shards, int read_pct) {
  return (std::filesystem::temp_directory_path() /
          ("psi_fig11_wal_k" + std::to_string(shards) + "_r" +
           std::to_string(read_pct)))
      .string();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = bench_n(200000);
  const std::size_t ops = bench_queries(20000);
  const int clients = bench_clients(4);
  const std::string backend = backend_choice(argc, argv);
  const bool wal = wal_choice(argc, argv);
  const char* trace_file = std::getenv("PSI_TRACE_FILE");
  if (psi::telemetry::kEnabled && trace_file != nullptr) {
    psi::telemetry::Tracer::instance().set_enabled(true);
  }
  const auto base = psi::datagen::osm_sim(n, 1);

  // Default: the fully templated SPaC-Z fast path (zero virtual dispatch).
  // --backend <name>: that registry backend on every shard, through the
  // AnyIndex service. --backend mixed: heterogeneous hot/cold split —
  // SPaC-Z on the first half of the initial shards (low curve ranges,
  // where osm_sim concentrates), the log-structured baseline on the rest.
  const std::string label = backend.empty() ? "SPaC-Z" : backend;
  std::printf("Fig 11: service throughput — %s backend, %zu base points, "
              "%d clients, %zu ops/client, %d scheduler workers, "
              "wal %s\n",
              label.c_str(), n, clients, ops, psi::num_workers(),
              wal ? "on" : "off");
  std::printf("(shard-count scaling comes from the per-shard parallel apply "
              "and per-query fan-out;\n expect K>1 gains only with multiple "
              "scheduler workers / cores)\n");
  Table table({"read%", "K=1", "K=2", "K=4", "K=8"});
  const std::size_t shard_counts[] = {1, 2, 4, 8};

  const auto emit_cell = [&](const Cell& cell, bool wal_on) {
    std::printf("BENCH_JSON {\"bench\":\"fig11_service_throughput\","
                "\"backend\":\"%s\",\"durability\":\"%s\","
                "\"shards\":%zu,\"read_pct\":%d,"
                "\"clients\":%d,\"workers\":%d,\"n\":%zu,\"ops\":%zu,"
                "\"seconds\":%.4f,\"ops_per_sec\":%.1f,\"stats\":%s}\n",
                label.c_str(), wal_on ? "wal" : "off", cell.shards,
                cell.read_pct, clients, psi::num_workers(), n, cell.ops,
                cell.seconds, cell.ops_per_sec(), cell.stats.json().c_str());
  };

  for (int read_pct : {90, 50, 10}) {
    std::vector<std::string> row{std::to_string(read_pct)};
    for (std::size_t k : shard_counts) {
      const std::string wal_dir =
          wal ? wal_dir_for(k, read_pct) : std::string{};
      Cell cell;
      if (backend.empty()) {
        cell = run_cell<SpatialService<SpacZTree2>>(
            [](const ServiceConfig& cfg) {
              return SpatialService<SpacZTree2>(cfg);
            },
            k, read_pct, n, ops, clients, base, wal_dir);
      } else if (backend == "mixed") {
        cell = run_cell<SpatialService<api::AnyIndex2>>(
            [k](const ServiceConfig& cfg) {
              const std::size_t hot = std::max<std::size_t>(1, k / 2);
              return SpatialService<api::AnyIndex2>(
                  cfg, [hot](std::size_t shard_id) {
                    auto& reg = api::BackendRegistry2::instance();
                    return shard_id < hot ? reg.make("spac-z")
                                          : reg.make("log");
                  });
            },
            k, read_pct, n, ops, clients, base, wal_dir);
      } else {
        cell = run_cell<SpatialService<api::AnyIndex2>>(
            [&backend](const ServiceConfig& cfg) {
              return SpatialService<api::AnyIndex2>(
                  cfg, [&backend](std::size_t) {
                    return api::BackendRegistry2::instance().make(backend);
                  });
            },
            k, read_pct, n, ops, clients, base, wal_dir);
      }
      row.push_back(Table::fmt(cell.ops_per_sec()));
      emit_cell(cell, wal);
      if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
    }
    table.row(row);
  }
  if (!wal && backend.empty()) {
    // One durable row rides along with the default run: same mixed
    // workload at read%=50 across the shard counts, WAL armed, so the
    // fsync-before-publish cost is always measured next to the wal-off
    // numbers (the gate keys on "durability" and never compares across).
    std::vector<std::string> row{"50+wal"};
    for (std::size_t k : shard_counts) {
      const std::string wal_dir = wal_dir_for(k, 50);
      const Cell cell = run_cell<SpatialService<SpacZTree2>>(
          [](const ServiceConfig& cfg) {
            return SpatialService<SpacZTree2>(cfg);
          },
          k, 50, n, ops, clients, base, wal_dir);
      row.push_back(Table::fmt(cell.ops_per_sec()));
      emit_cell(cell, /*wal_on=*/true);
      std::filesystem::remove_all(wal_dir);
    }
    table.row(row);
  }
  if (psi::telemetry::kEnabled && trace_file != nullptr) {
    auto& tracer = psi::telemetry::Tracer::instance();
    if (tracer.write_chrome_trace(trace_file)) {
      std::printf("trace: %zu events -> %s\n", tracer.event_count(),
                  trace_file);
    } else {
      std::printf("trace: could not open %s\n", trace_file);
    }
  }
  return 0;
}
