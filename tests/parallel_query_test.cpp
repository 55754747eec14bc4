// The parallel query execution engine, end to end:
//
//  * parallel vs sequential visit equivalence — every registry backend
//    (native fan-out or sequential shim), uniform and varden inputs,
//    PSI_NUM_WORKERS ∈ {1, 2, 4}, with the fork grain forced tiny so the
//    parallel code paths run even on small trees / 1-core CI;
//  * early termination mid-stream through the ConcurrentSink limit;
//  * Snapshot shard fan-out (TaskGroup path) against the sequential one;
//  * the group commit against the brute-force oracle, including
//    concurrent writers/readers;
//  * the epoch-keyed query cache (hits, misses, invalidation on commit);
//  * the PSI_GRAIN / set_fork_grain knob.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "psi/psi.h"
#include "test_util.h"

namespace {

using namespace psi;
using namespace psi::service;

constexpr std::int64_t kMax = 1'000'000;

// Restore scheduler/grain defaults after each test so suites stay
// order-independent.
class ParallelQueryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    set_fork_grain(0);
    Scheduler::set_num_workers(1);
  }
};

std::vector<Point2> dataset(const std::string& kind, std::size_t n,
                            std::uint64_t seed) {
  if (kind == "varden") return datagen::varden<2>(n, seed, kMax);
  return datagen::uniform<2>(n, seed, kMax);
}

Box2 centre_box(std::int64_t half) {
  return Box2{{{kMax / 2 - half, kMax / 2 - half}},
              {{kMax / 2 + half, kMax / 2 + half}}};
}

TEST_F(ParallelQueryTest, AllBackendsParallelEqualsSequential) {
  set_fork_grain(128);  // force forking on test-sized trees
  auto& reg = api::BackendRegistry2::instance();
  for (const std::string kind : {"uniform", "varden"}) {
    const auto pts = dataset(kind, 6000, kind == "varden" ? 7 : 5);
    const Point2 q{{kMax / 2, kMax / 2}};
    const double radius = kMax / 4.0;
    const std::vector<Box2> boxes = {
        centre_box(kMax / 3),                    // selective
        Box2{{{0, 0}}, {{kMax, kMax}}},          // everything
        Box2{{{kMax + 1, kMax + 1}}, {{kMax + 2, kMax + 2}}},  // empty
    };
    for (const auto& name : reg.names()) {
      auto index = reg.make(name);
      index.build(pts);
      for (int workers : {1, 2, 4}) {
        Scheduler::set_num_workers(workers);
        for (const auto& box : boxes) {
          api::ConcurrentSink<std::int64_t, 2> sink;
          index.range_visit_par(box, sink);
          testutil::expect_same_multiset(sink.take(), index.range_list(box));
        }
        api::ConcurrentSink<std::int64_t, 2> ball_sink;
        index.ball_visit_par(q, radius, ball_sink);
        testutil::expect_same_multiset(ball_sink.take(),
                                       index.ball_list(q, radius));
      }
      Scheduler::set_num_workers(1);
    }
  }
}

// The native (fully templated) fan-outs, bypassing AnyIndex.
TEST_F(ParallelQueryTest, NativeTreeParallelVisits) {
  set_fork_grain(64);
  Scheduler::set_num_workers(4);
  const auto pts = dataset("uniform", 8000, 11);
  const Box2 box = centre_box(kMax / 4);
  const Point2 q{{kMax / 3, kMax / 3}};
  const double radius = kMax / 5.0;

  auto check = [&](auto index) {
    index.build(pts);
    api::ConcurrentSink<std::int64_t, 2> rs;
    index.range_visit_par(box, rs);
    testutil::expect_same_multiset(rs.take(), index.range_list(box));
    api::ConcurrentSink<std::int64_t, 2> bs;
    index.ball_visit_par(q, radius, bs);
    testutil::expect_same_multiset(bs.take(), index.ball_list(q, radius));
  };
  check(SpacZTree2{});
  check(SpacHTree2{});
  check(POrthTree2{});
  check(ZdTree2{});
  check(PkdTree<std::int64_t, 2>{});
}

// Early termination mid-stream: a limited sink retains exactly
// min(limit, matches) points, sequentially and under parallel fan-out.
TEST_F(ParallelQueryTest, EarlyTerminationWithLimit) {
  set_fork_grain(64);
  const auto pts = dataset("uniform", 6000, 3);
  const Box2 everything{{{0, 0}}, {{kMax, kMax}}};
  SpacZTree2 tree;
  tree.build(pts);
  const std::size_t total = tree.range_count(everything);
  ASSERT_GT(total, 100u);

  for (int workers : {1, 2, 4}) {
    Scheduler::set_num_workers(workers);
    for (std::size_t limit : {std::size_t{1}, std::size_t{97},
                              total, total + 50}) {
      api::ConcurrentSink<std::int64_t, 2> sink(limit);
      tree.range_visit_par(everything, sink);
      EXPECT_EQ(sink.count(), std::min(limit, total))
          << "workers=" << workers << " limit=" << limit;
      if (limit < total) {
        EXPECT_TRUE(sink.stopped());
      }
    }
  }
}

// Snapshot fan-out: the TaskGroup-parallel read path returns the same
// results as the sequential stream, from plain client threads.
TEST_F(ParallelQueryTest, SnapshotParallelFanOut) {
  set_fork_grain(128);
  Scheduler::set_num_workers(4);
  ServiceConfig cfg;
  cfg.initial_shards = 4;
  SpatialService<SpacZTree2> svc(cfg);
  const auto pts = dataset("varden", 20000, 23);
  svc.build(pts);

  BruteForceIndex<std::int64_t, 2> oracle;
  oracle.build(pts);

  auto snap = svc.snapshot();
  const Point2 q{{kMax / 2, kMax / 2}};
  for (std::int64_t half : {kMax / 20, kMax / 4, kMax}) {
    const Box2 box = testutil::box_around(q, half, kMax);
    // Concurrent-sink visit == sequential list == oracle.
    api::ConcurrentSink<std::int64_t, 2> sink;
    snap.range_visit(box, sink);
    testutil::expect_same_multiset(sink.take(), oracle.range_list(box));
    // Materialising adapters (parallel with 4 workers) agree too.
    testutil::expect_same_multiset(snap.range_list(box),
                                   oracle.range_list(box));
    EXPECT_EQ(snap.range_count(box), oracle.range_count(box));
  }
  const double radius = kMax / 6.0;
  testutil::expect_same_multiset(snap.ball_list(q, radius),
                                 oracle.ball_list(q, radius));
  EXPECT_EQ(snap.ball_count(q, radius), oracle.ball_count(q, radius));

  // Early termination across shards.
  const Box2 everything{{{0, 0}}, {{kMax, kMax}}};
  api::ConcurrentSink<std::int64_t, 2> limited(1000);
  snap.range_visit(everything, limited);
  EXPECT_EQ(limited.count(), 1000u);
}

// Group commit vs the brute-force oracle: deterministic rounds of mixed
// inserts/deletes with splits forced mid-run; epochs must stay monotone
// and every future resolve in order.
TEST_F(ParallelQueryTest, GroupCommitMatchesOracle) {
  Scheduler::set_num_workers(4);
  ServiceConfig cfg;
  cfg.initial_shards = 2;
  cfg.split_threshold = 3000;  // force topology changes
  cfg.merge_threshold = 64;
  SpatialService<SpacZTree2> svc(cfg);
  BruteForceIndex<std::int64_t, 2> oracle;

  std::uint64_t last_epoch = 0;
  for (int round = 0; round < 6; ++round) {
    auto mine =
        datagen::uniform<2>(2000, 100 + static_cast<std::uint64_t>(round),
                            kMax);
    auto futs = svc.submit_insert_batch(mine);
    oracle.batch_insert(mine);
    std::vector<Point2> del(mine.begin(),
                            mine.begin() + static_cast<std::ptrdiff_t>(
                                               mine.size() / 2));
    auto futs2 = svc.submit_delete_batch(del);
    oracle.batch_delete(del);
    svc.flush();
    for (auto& f : futs) EXPECT_GE(f.get().epoch, last_epoch);
    for (auto& f : futs2) EXPECT_GT(f.get().epoch, 0u);
    auto snap = svc.snapshot();
    EXPECT_GE(snap.epoch(), last_epoch);
    last_epoch = snap.epoch();
    ASSERT_EQ(snap.size(), oracle.size());
    testutil::expect_same_multiset(snap.flatten(), oracle.points());
  }
  const auto st = svc.stats();
  EXPECT_GT(st.splits, 0u);
}

// Group commit under concurrency: background committer, writer threads
// with FIFO-safe delete-after-insert traffic, readers asserting snapshot
// consistency; multiset equality with the oracle at the quiesce point.
TEST_F(ParallelQueryTest, GroupCommitStress) {
  Scheduler::set_num_workers(4);
  ServiceConfig cfg;
  cfg.initial_shards = 4;
  cfg.split_threshold = 4000;
  cfg.merge_threshold = 64;
  cfg.commit_interval_ms = 1;
  SpatialService<SpacZTree2> svc(cfg);
  svc.start();

  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t last_epoch = 0;
      Rng rng(static_cast<std::uint64_t>(77 + r));
      std::uint64_t i = 0;
      while (!stop_readers.load(std::memory_order_relaxed)) {
        auto snap = svc.snapshot();
        ASSERT_GE(snap.epoch(), last_epoch);
        last_epoch = snap.epoch();
        Point2 q{{static_cast<std::int64_t>(rng.ith_bounded(2 * i, kMax)),
                  static_cast<std::int64_t>(rng.ith_bounded(2 * i + 1, kMax))}};
        ++i;
        const Box2 b = testutil::box_around(q, kMax / 10, kMax);
        ASSERT_EQ(snap.range_count(b), snap.range_list(b).size());
      }
    });
  }

  std::mutex oracle_mu;
  BruteForceIndex<std::int64_t, 2> oracle;
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      auto mine = datagen::uniform<2>(6000,
                                      static_cast<std::uint64_t>(500 + w),
                                      kMax);
      const std::size_t chunk = 300;
      std::vector<std::future<Result<std::int64_t, 2>>> futs;
      for (std::size_t lo = 0; lo < mine.size(); lo += chunk) {
        const std::size_t hi = std::min(mine.size(), lo + chunk);
        std::vector<Point2> ins(
            mine.begin() + static_cast<std::ptrdiff_t>(lo),
            mine.begin() + static_cast<std::ptrdiff_t>(hi));
        auto fs = svc.submit_insert_batch(ins);
        std::vector<Point2> del(
            ins.begin(), ins.begin() + static_cast<std::ptrdiff_t>(chunk / 2));
        auto fs2 = svc.submit_delete_batch(del);
        {
          std::lock_guard<std::mutex> g(oracle_mu);
          oracle.batch_insert(ins);
          oracle.batch_delete(del);
        }
        futs.insert(futs.end(), std::make_move_iterator(fs.begin()),
                    std::make_move_iterator(fs.end()));
        futs.insert(futs.end(), std::make_move_iterator(fs2.begin()),
                    std::make_move_iterator(fs2.end()));
      }
      for (auto& f : futs) f.get();
    });
  }
  for (auto& t : writers) t.join();
  svc.flush();
  stop_readers.store(true);
  for (auto& t : readers) t.join();

  auto snap = svc.snapshot();
  ASSERT_EQ(snap.size(), oracle.size());
  testutil::expect_same_multiset(snap.flatten(), oracle.points());
  svc.stop();
}

// The epoch-keyed query cache: repeat queries hit, commits invalidate,
// counters surface in stats()/json().
TEST_F(ParallelQueryTest, QueryCacheHitsAndInvalidation) {
  SpatialService<SpacZTree2> svc(ServiceConfig{.initial_shards = 2});
  const auto pts = dataset("uniform", 5000, 42);
  svc.build(pts);
  const Box2 box = centre_box(kMax / 3);

  const auto first = svc.range_list_cached(box);
  const auto again = svc.range_list_cached(box);
  EXPECT_EQ(first.get(), again.get());  // shared materialised result
  EXPECT_EQ(svc.range_count_cached(box), first->size());

  auto st = svc.stats();
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.cache_hits, 2u);
  EXPECT_NE(st.json().find("\"cache_hits\":2"), std::string::npos);

  // A commit bumps the epoch: the same box misses and recomputes.
  auto fut = svc.submit_insert(Point2{{kMax / 2, kMax / 2}});
  svc.flush();  // manual mode: flush pumps the queue and resolves the future
  EXPECT_GT(fut.get().epoch, 0u);
  const auto after = svc.range_list_cached(box);
  EXPECT_EQ(after->size(), first->size() + 1);
  st = svc.stats();
  EXPECT_EQ(st.cache_misses, 2u);

  // The cached answers match an uncached snapshot exactly.
  testutil::expect_same_multiset(*after, svc.snapshot().range_list(box));
}

// The PSI_GRAIN knob: runtime override and restore.
TEST_F(ParallelQueryTest, ForkGrainOverride) {
  const std::size_t base = fork_grain();
  EXPECT_GE(base, 1u);
  set_fork_grain(17);
  EXPECT_EQ(fork_grain(), 17u);
  set_fork_grain(0);  // back to env/default
  EXPECT_EQ(fork_grain(), base);
}

}  // namespace
