// Fig 12 (extension, not in the paper): single-snapshot query parallelism.
//
// Sweeps scheduler workers over range and ball queries against one pinned
// Snapshot of a sharded SpatialService, comparing the sequential streaming
// path (plain sink: shard-by-shard, no forking) with the parallel engine
// (api::ConcurrentSink: TaskGroup shard fan-out + native parallel subtree
// traversal). This is the read-path half of the execution engine; fig11
// covers the write path.
//
// Output: a table plus one JSON line per cell:
//   BENCH_JSON {"bench":"fig12_parallel_query","workload":"Uniform",
//               "op":"range","mode":"par","workers":2,"shards":4,
//               "queries":..,"hits":..,"seconds":..,"qps":..}
//
// Knobs: PSI_BENCH_N (base points), PSI_BENCH_Q (queries per cell),
// PSI_MAX_THREADS (top of the worker sweep), PSI_GRAIN (fork grain).
// On a 1-core container the sweep still exercises the parallel code paths
// (oversubscribed threads); speedups need real cores.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace psi;
using namespace psi::bench;
using namespace psi::service;

namespace {

Box2 box_around(const Point2& c, std::int64_t h) {
  Box2 b;
  for (int d = 0; d < 2; ++d) {
    b.lo[d] = std::max<std::int64_t>(0, c[d] - h);
    b.hi[d] = std::min<std::int64_t>(kMax2, c[d] + h);
  }
  return b;
}

struct Cell {
  std::size_t queries = 0;
  std::size_t hits = 0;
  double seconds = 0;
  double qps() const {
    return seconds > 0 ? static_cast<double>(queries) / seconds : 0;
  }
};

void emit(const std::string& workload, const char* op, const char* mode,
          int workers, std::size_t shards, const Cell& c) {
  std::printf("BENCH_JSON {\"bench\":\"fig12_parallel_query\","
              "\"workload\":\"%s\",\"op\":\"%s\",\"mode\":\"%s\","
              "\"workers\":%d,\"shards\":%zu,\"queries\":%zu,\"hits\":%zu,"
              "\"seconds\":%.4f,\"qps\":%.1f}\n",
              workload.c_str(), op, mode, workers, shards, c.queries, c.hits,
              c.seconds, c.qps());
}

}  // namespace

int main() {
  const std::size_t n = bench_n(200'000);
  const std::size_t q = bench_queries(200);
  const std::size_t shards = 4;
  // Boxes sized for a meaty result (~2% of the data) so the traversal, not
  // the fixed per-query overhead, is what the sweep measures.
  const std::int64_t half = side_for_output<2>(n, n / 50, kMax2) / 2;
  const double radius = static_cast<double>(half);

  std::vector<int> threads;
  for (int p = 1; p <= bench_max_threads(); p *= 2) threads.push_back(p);
  if (threads.back() != bench_max_threads()) threads.push_back(bench_max_threads());

  std::printf("Fig 12: single-snapshot query parallelism, n=%zu, q=%zu, "
              "K=%zu, grain=%zu\n",
              n, q, shards, fork_grain());

  for (const std::string workload : {"Uniform", "Varden"}) {
    const auto base = make_workload_2d(workload, n, 1);
    const auto centres = datagen::ind_queries(base, q, 99, kMax2);

    ServiceConfig cfg;
    cfg.initial_shards = shards;
    cfg.split_threshold = n * 8;  // fixed topology isolates the read path
    cfg.merge_threshold = 1;
    SpatialService<SpacZTree2> svc(cfg);
    svc.build(base);
    auto snap = svc.snapshot();

    std::printf("\n=== Fig 12 | %s ===\n", workload.c_str());
    Table table({"op", "mode", "p=..", "qps"});
    for (int p : threads) {
      Scheduler::set_num_workers(p);
      for (const bool par : {false, true}) {
        Cell range_cell, ball_cell;
        range_cell.queries = ball_cell.queries = centres.size();
        {
          Timer t;
          for (const auto& c : centres) {
            const Box2 box = box_around(c, half);
            if (par) {
              api::ConcurrentSink<std::int64_t, 2> sink;
              snap.range_visit(box, sink);
              range_cell.hits += sink.count();
            } else {
              std::size_t got = 0;
              snap.range_visit(box, [&](const Point2&) { ++got; });
              range_cell.hits += got;
            }
          }
          range_cell.seconds = t.seconds();
        }
        {
          Timer t;
          for (const auto& c : centres) {
            if (par) {
              api::ConcurrentSink<std::int64_t, 2> sink;
              snap.ball_visit(c, radius, sink);
              ball_cell.hits += sink.count();
            } else {
              std::size_t got = 0;
              snap.ball_visit(c, radius, [&](const Point2&) { ++got; });
              ball_cell.hits += got;
            }
          }
          ball_cell.seconds = t.seconds();
        }
        const char* mode = par ? "par" : "seq";
        table.row({"range", mode, std::to_string(p),
                   Table::fmt(range_cell.qps())});
        table.row({"ball", mode, std::to_string(p),
                   Table::fmt(ball_cell.qps())});
        emit(workload, "range", mode, p, shards, range_cell);
        emit(workload, "ball", mode, p, shards, ball_cell);
      }
    }
    Scheduler::set_num_workers(bench_max_threads());
  }
  return 0;
}
