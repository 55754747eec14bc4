// Standalone core replay for the traced run.
//
// Core calls happen inside the service's committer and snapshot fan-out,
// where the benchmark cannot put spans. The traced run therefore replays the
// run's recorded update ticks and issued queries against one standalone
// index holding the same base set, through its public build / batch_delete /
// batch_insert / knn / range_list / range_count, and times each call.

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

struct CoreTimes {
  double build_s = 0;
  double update_ns_per_pt = 0;
  std::vector<double> knn_us;
  std::vector<double> range_count_us;
  double range_list_ns = 0;
  std::uint64_t range_list_pts = 0;
  // Core time of each replayed query, by its position in the query list.
  std::vector<double> query_us;
};

// Replays the first `n_ticks` ticks and the first `n_queries` queries
// (interleaved evenly, queries after the tick that preceded them). Each
// tick applies its deletes and inserts in the order the workload's service
// receives them.
template <typename Index, typename P, typename Desc>
CoreTimes replay_core(const std::vector<P>& base,
                      const std::vector<Tick<P>>& ticks, std::size_t n_ticks,
                      const std::vector<Desc>& queries, std::size_t n_queries,
                      bool inserts_first) {
  using Kind = typename Desc::Kind;
  CoreTimes out;
  Index idx;
  {
    Span s("core.build");
    const std::int64_t t0 = now_ns();
    idx.build(base);
    out.build_s = static_cast<double>(now_ns() - t0) / 1e9;
  }
  out.query_us.assign(n_queries, 0);
  std::int64_t update_ns = 0;
  std::uint64_t update_pts = 0;
  std::size_t next_query = 0;
  auto run_queries_until = [&](std::size_t upto) {
    for (; next_query < upto; ++next_query) {
      const Desc& q = queries[next_query % queries.size()];
      const std::int64_t t0 = now_ns();
      std::size_t pts = 0;
      switch (q.kind) {
        case Kind::kKnn: {
          Span s("core.knn");
          pts = idx.knn(q.center, q.k).size();
          break;
        }
        case Kind::kRangeList: {
          Span s("core.range_list");
          pts = idx.range_list(q.box).size();
          break;
        }
        case Kind::kRangeCount: {
          Span s("core.range_count");
          pts = idx.range_count(q.box);
          break;
        }
        default:
          break;
      }
      const std::int64_t dt = now_ns() - t0;
      out.query_us[next_query] = ns_to_us(dt);
      if (q.kind == Kind::kKnn) out.knn_us.push_back(ns_to_us(dt));
      if (q.kind == Kind::kRangeCount) out.range_count_us.push_back(ns_to_us(dt));
      if (q.kind == Kind::kRangeList) {
        out.range_list_ns += static_cast<double>(dt);
        out.range_list_pts += pts;
      }
    }
  };
  const std::size_t nt = std::max<std::size_t>(1, n_ticks);
  for (std::size_t i = 0; i < n_ticks; ++i) {
    const Tick<P>& t = ticks[i];
    {
      Span s("core.update");
      const std::int64_t t0 = now_ns();
      if (inserts_first) {
        idx.batch_insert(t.ins);
        idx.batch_delete(t.dels);
      } else {
        idx.batch_delete(t.dels);
        idx.batch_insert(t.ins);
      }
      update_ns += now_ns() - t0;
    }
    update_pts += t.dels.size() + t.ins.size();
    run_queries_until(n_queries * (i + 1) / nt);
  }
  run_queries_until(n_queries);
  out.update_ns_per_pt =
      update_pts ? static_cast<double>(update_ns) / static_cast<double>(update_pts)
                 : 0;
  return out;
}

}  // namespace perfbench
