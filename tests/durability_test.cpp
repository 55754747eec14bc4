// psi::durability tests: WAL framing and rotation, torn-tail and bit-flip
// fuzz against a brute-force prefix oracle, checkpoint/manifest atomicity,
// and crash-restart recovery for both SpatialService and the 2-node
// DistributedService (the kill -9 flavour lives in crash_writer.cpp,
// driven by the CI crash-recovery loop).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "psi/psi.h"
#include "test_util.h"

#include "psi/durability/checkpoint.h"
#include "psi/durability/recovery.h"
#include "psi/durability/wal.h"
#include "psi/net/distributed_service.h"
#include "psi/net/transport.h"
#include "psi/telemetry/registry.h"

namespace {

using namespace psi;
namespace fs = std::filesystem;

using ZService = service::SpatialService<SpacZTree2>;
using DService = net::DistributedService<SpacZTree2>;

constexpr std::int64_t kMax = 1 << 16;

Box2 whole_domain() {
  Box2 b;
  b.lo[0] = b.lo[1] = 0;
  b.hi[0] = b.hi[1] = kMax;
  return b;
}

// Fresh per-test scratch directory under gtest's temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "psi_durability_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

durability::DurabilityConfig test_cfg(const std::string& dir) {
  durability::DurabilityConfig d;
  d.enabled = true;
  d.dir = dir;
  d.fsync = false;  // media guarantees are not under test here
  return d;
}

std::vector<std::uint8_t> one_point_commit(std::uint64_t epoch,
                                           const Point2& p) {
  std::vector<service::OpRun<Point2>> runs;
  runs.push_back({/*is_delete=*/false, {p}});
  std::vector<durability::CommitShardRef<Point2>> shards;
  shards.push_back({/*key=*/42, /*version=*/epoch, &runs});
  return durability::encode_commit_record(epoch, shards);
}

void expect_same_multiset(std::vector<Point2> a, std::vector<Point2> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// WAL framing
// ---------------------------------------------------------------------------

TEST(Wal, RoundTripCommitAndMarkerRecords) {
  if (!durability::kEnabled) GTEST_SKIP() << "durability compiled out";
  const std::string dir = fresh_dir("roundtrip");
  durability::WalWriter w;
  w.open(dir, test_cfg(dir));
  const Point2 p{123, 456};
  w.append(one_point_commit(7, p));
  w.append(durability::encode_mark_record(7));
  w.sync();
  EXPECT_EQ(w.appends(), 2u);
  EXPECT_GT(w.bytes(), 0u);
  w.close();

  const auto segs = durability::list_segments(dir);
  ASSERT_EQ(segs.size(), 1u);
  durability::WalSegmentCursor cur(segs[0].second);
  ASSERT_TRUE(cur.valid());
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(cur.next(payload));
  EXPECT_EQ(durability::record_kind(payload), durability::RecordKind::kCommit);
  const auto rec = durability::decode_commit_record<Point2>(payload);
  EXPECT_EQ(rec.epoch, 7u);
  ASSERT_EQ(rec.shards.size(), 1u);
  EXPECT_EQ(rec.shards[0].key, 42u);
  ASSERT_EQ(rec.shards[0].runs.size(), 1u);
  ASSERT_EQ(rec.shards[0].runs[0].pts.size(), 1u);
  EXPECT_EQ(rec.shards[0].runs[0].pts[0], p);
  ASSERT_TRUE(cur.next(payload));
  EXPECT_EQ(durability::decode_mark_record(payload), 7u);
  EXPECT_FALSE(cur.next(payload));
  EXPECT_FALSE(cur.torn());

  EXPECT_EQ(durability::last_marker(dir), 7u);
}

TEST(Wal, RotationAndTruncation) {
  if (!durability::kEnabled) GTEST_SKIP() << "durability compiled out";
  const std::string dir = fresh_dir("rotate");
  auto cfg = test_cfg(dir);
  cfg.segment_bytes = 128;  // force size-based rotation quickly
  durability::WalWriter w;
  w.open(dir, cfg);
  for (std::uint64_t e = 1; e <= 8; ++e) {
    w.append(one_point_commit(e, Point2{static_cast<std::int64_t>(e), 0}));
  }
  EXPECT_GT(durability::list_segments(dir).size(), 1u);

  // Explicit rotation: records so far live strictly below the new seq.
  const std::uint64_t watermark = w.rotate();
  EXPECT_EQ(w.active_seq(), watermark);
  w.append(one_point_commit(9, Point2{9, 0}));
  w.truncate_below(watermark);
  w.close();
  const auto segs = durability::list_segments(dir);
  for (const auto& [seq, path] : segs) EXPECT_GE(seq, watermark) << path;

  // Only the post-rotation record survives truncation.
  const auto rec = durability::recover<std::int64_t, 2>(dir);
  EXPECT_TRUE(rec.found);
  EXPECT_EQ(rec.records_applied, 1u);
  ASSERT_EQ(rec.shards.size(), 1u);
  expect_same_multiset(rec.shards[0].pts, {Point2{9, 0}});
}

// ---------------------------------------------------------------------------
// Torn-tail / corruption fuzz vs a brute-force prefix oracle
// ---------------------------------------------------------------------------

struct FuzzLog {
  std::string segment_name;          // filename inside the WAL dir
  std::vector<std::uint8_t> bytes;   // full segment file image
  std::vector<std::size_t> ends;     // byte offset after record i
  std::vector<Point2> points;        // point inserted by record i
};

// One segment of N single-insert commit records with known boundaries.
FuzzLog build_fuzz_log(std::size_t n) {
  const std::string dir = fresh_dir("fuzz_build");
  durability::WalWriter w;
  w.open(dir, test_cfg(dir));
  FuzzLog log;
  std::size_t off = durability::kSegmentHeaderBytes;
  for (std::size_t i = 0; i < n; ++i) {
    const Point2 p{static_cast<std::int64_t>(100 + i),
                   static_cast<std::int64_t>(200 + i)};
    const auto payload = one_point_commit(i + 1, p);
    w.append(payload);
    off += durability::kRecordPreludeBytes + payload.size();
    log.ends.push_back(off);
    log.points.push_back(p);
  }
  w.sync();
  const auto segs = durability::list_segments(dir);
  EXPECT_EQ(segs.size(), 1u);
  log.segment_name = fs::path(segs[0].second).filename().string();
  std::ifstream in(segs[0].second, std::ios::binary);
  log.bytes.assign(std::istreambuf_iterator<char>(in), {});
  EXPECT_EQ(log.bytes.size(), log.ends.back());
  return log;
}

void write_segment(const std::string& dir, const FuzzLog& log,
                   const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(dir + "/" + log.segment_name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Number of whole records at or below byte offset `t`.
std::size_t oracle_prefix(const FuzzLog& log, std::size_t t) {
  std::size_t k = 0;
  while (k < log.ends.size() && log.ends[k] <= t) ++k;
  return k;
}

TEST(WalFuzz, TruncationAtEveryByteRecoversLongestValidPrefix) {
  if (!durability::kEnabled) GTEST_SKIP() << "durability compiled out";
  const FuzzLog log = build_fuzz_log(6);
  const std::string dir = fresh_dir("fuzz_trunc");
  for (std::size_t t = 0; t <= log.bytes.size(); ++t) {
    write_segment(dir, log,
                  {log.bytes.begin(),
                   log.bytes.begin() + static_cast<std::ptrdiff_t>(t)});
    const auto rec = durability::recover<std::int64_t, 2>(dir);
    const std::size_t k = t < durability::kSegmentHeaderBytes
                              ? 0
                              : oracle_prefix(log, t);
    ASSERT_EQ(rec.records_applied, k) << "truncated at byte " << t;
    ASSERT_EQ(rec.found, k > 0) << "truncated at byte " << t;
    // Clean EOF only at an exact record boundary past an intact header.
    const bool clean = t >= durability::kSegmentHeaderBytes &&
                       (k == log.ends.size() || t == (k == 0
                            ? durability::kSegmentHeaderBytes
                            : log.ends[k - 1]));
    ASSERT_EQ(rec.torn_tail, !clean) << "truncated at byte " << t;
    std::vector<Point2> expect(log.points.begin(), log.points.begin() +
                               static_cast<std::ptrdiff_t>(k));
    std::vector<Point2> got;
    for (const auto& s : rec.shards) {
      got.insert(got.end(), s.pts.begin(), s.pts.end());
    }
    expect_same_multiset(got, expect);
  }
}

TEST(WalFuzz, BitFlipsNeverCrashAndRecoverAPrefix) {
  if (!durability::kEnabled) GTEST_SKIP() << "durability compiled out";
  const FuzzLog log = build_fuzz_log(6);
  const std::string dir = fresh_dir("fuzz_flip");
  for (std::size_t pos = 0; pos < log.bytes.size(); pos += 3) {
    std::vector<std::uint8_t> mutated = log.bytes;
    mutated[pos] ^= static_cast<std::uint8_t>(1u << (pos % 8));
    write_segment(dir, log, mutated);
    const auto rec = durability::recover<std::int64_t, 2>(dir);
    // CRC framing stops replay at the damaged record: whatever comes back
    // must be an exact prefix of the original insert stream.
    ASSERT_LE(rec.records_applied, log.points.size()) << "flip at " << pos;
    std::vector<Point2> expect(
        log.points.begin(),
        log.points.begin() + static_cast<std::ptrdiff_t>(rec.records_applied));
    std::vector<Point2> got;
    for (const auto& s : rec.shards) {
      got.insert(got.end(), s.pts.begin(), s.pts.end());
    }
    expect_same_multiset(got, expect);
    // A flip inside a record body (past the header) must not replay all
    // records as if nothing happened — CRC32 detects every 1-bit error.
    if (pos >= durability::kSegmentHeaderBytes) {
      ASSERT_LT(rec.records_applied, log.points.size()) << "flip at " << pos;
      ASSERT_TRUE(rec.torn_tail) << "flip at " << pos;
    }
  }
}

TEST(WalFuzz, DeleteTargetingRekeyedShardStillRemovesThePoint) {
  if (!durability::kEnabled) GTEST_SKIP() << "durability compiled out";
  // A split between checkpoint and crash re-keys shards: the checkpoint
  // holds the victim under key 1, but the post-split delete record names
  // key 99. Recovery's multiset semantics must still remove it.
  const std::string dir = fresh_dir("rekeyed_delete");
  durability::Manifest m;
  m.epoch = 1;
  m.shards.resize(1);
  m.shards[0] = {/*key=*/1, /*version=*/1, /*factory_id=*/0, ""};
  durability::write_checkpoint<std::int64_t, 2>(
      dir, m, {{{10, 10}, {11, 11}}}, false);

  durability::WalWriter w;
  w.open(dir, test_cfg(dir));
  std::vector<service::OpRun<Point2>> runs;
  runs.push_back({/*is_delete=*/true, {Point2{10, 10}}});
  std::vector<durability::CommitShardRef<Point2>> shards;
  shards.push_back({/*key=*/99, /*version=*/5, &runs});
  w.append(durability::encode_commit_record(2, shards));
  w.sync();
  w.close();

  const auto rec = durability::recover<std::int64_t, 2>(dir);
  EXPECT_EQ(rec.records_applied, 1u);
  expect_same_multiset(rec.all_points(), {{11, 11}});
}

TEST(WalFuzz, ReplayedDeletesHaveMultisetSemantics) {
  if (!durability::kEnabled) GTEST_SKIP() << "durability compiled out";
  // Each replayed delete removes exactly ONE occurrence, whether the copies
  // share a shard or not: {10,10} is held twice and deleted once (one copy
  // stays), {12,12} is deleted twice in one run with one copy in each shard
  // (none stays), and {13,13} is absent everywhere (a no-op).
  const std::string dir = fresh_dir("multiset_delete");
  durability::Manifest m;
  m.epoch = 1;
  m.shards.resize(2);
  m.shards[0] = {/*key=*/1, /*version=*/1, /*factory_id=*/0, ""};
  m.shards[1] = {/*key=*/2, /*version=*/1, /*factory_id=*/0, ""};
  durability::write_checkpoint<std::int64_t, 2>(
      dir, m, {{{10, 10}, {11, 11}, {12, 12}, {10, 10}}, {{12, 12}, {14, 14}}},
      false);

  durability::WalWriter w;
  w.open(dir, test_cfg(dir));
  std::vector<service::OpRun<Point2>> runs;
  runs.push_back({/*is_delete=*/true,
                  {Point2{12, 12}, Point2{10, 10}, Point2{13, 13},
                   Point2{12, 12}}});
  std::vector<durability::CommitShardRef<Point2>> shards;
  shards.push_back({/*key=*/1, /*version=*/5, &runs});
  w.append(durability::encode_commit_record(2, shards));
  w.sync();
  w.close();

  const auto rec = durability::recover<std::int64_t, 2>(dir);
  EXPECT_EQ(rec.records_applied, 1u);
  expect_same_multiset(rec.all_points(), {{10, 10}, {11, 11}, {14, 14}});
}

// ---------------------------------------------------------------------------
// Checkpoints and the manifest
// ---------------------------------------------------------------------------

TEST(Checkpoint, WriteReadAndSupersede) {
  if (!durability::kEnabled) GTEST_SKIP() << "durability compiled out";
  const std::string dir = fresh_dir("ckpt");
  durability::Manifest m;
  m.epoch = 5;
  m.watermark = 3;
  m.shards.resize(2);
  m.shards[0] = {/*key=*/1, /*version=*/10, /*factory_id=*/0, ""};
  m.shards[1] = {/*key=*/2, /*version=*/11, /*factory_id=*/1, ""};
  std::vector<std::vector<Point2>> pts = {{{1, 1}, {2, 2}}, {{3, 3}}};
  durability::write_checkpoint<std::int64_t, 2>(dir, m, pts, false);

  const auto back = durability::read_manifest(dir);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->epoch, 5u);
  EXPECT_EQ(back->watermark, 3u);
  ASSERT_EQ(back->shards.size(), 2u);
  EXPECT_EQ(back->shards[1].factory_id, 1u);

  auto rec = durability::recover<std::int64_t, 2>(dir);
  EXPECT_TRUE(rec.found);
  EXPECT_EQ(rec.checkpoint_epoch, 5u);
  expect_same_multiset(rec.all_points(), {{1, 1}, {2, 2}, {3, 3}});

  // A later checkpoint supersedes atomically and sweeps the old files.
  durability::Manifest m2;
  m2.epoch = 9;
  m2.watermark = 7;
  m2.shards.resize(1);
  m2.shards[0] = {/*key=*/1, /*version=*/20, /*factory_id=*/0, ""};
  durability::write_checkpoint<std::int64_t, 2>(dir, m2, {{{5, 5}}}, false);
  rec = durability::recover<std::int64_t, 2>(dir);
  EXPECT_EQ(rec.checkpoint_epoch, 9u);
  expect_same_multiset(rec.all_points(), {{5, 5}});
  std::size_t ckpt_files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0) ++ckpt_files;
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
  EXPECT_EQ(ckpt_files, 1u);  // stale epoch-5 snapshots swept
}

TEST(Checkpoint, StrayTmpFilesAreIgnoredAndSwept) {
  if (!durability::kEnabled) GTEST_SKIP() << "durability compiled out";
  const std::string dir = fresh_dir("ckpt_tmp");
  {
    // A crash mid-write leaves a garbage .tmp; it must not confuse
    // recovery (no manifest yet -> nothing found).
    std::ofstream junk(dir + "/ckpt-1-1.bin.tmp", std::ios::binary);
    junk << "garbage";
  }
  auto rec = durability::recover<std::int64_t, 2>(dir);
  EXPECT_FALSE(rec.found);

  durability::Manifest m;
  m.epoch = 1;
  m.shards.resize(1);
  m.shards[0] = {/*key=*/1, /*version=*/1, /*factory_id=*/0, ""};
  durability::write_checkpoint<std::int64_t, 2>(dir, m, {{{4, 4}}}, false);
  EXPECT_FALSE(fs::exists(dir + "/ckpt-1-1.bin.tmp"));
  rec = durability::recover<std::int64_t, 2>(dir);
  expect_same_multiset(rec.all_points(), {{4, 4}});
}

// ---------------------------------------------------------------------------
// SpatialService crash-restart
// ---------------------------------------------------------------------------

service::ServiceConfig durable_service_cfg(const std::string& dir) {
  service::ServiceConfig cfg;
  cfg.initial_shards = 4;
  cfg.durability = test_cfg(dir);
  return cfg;
}

std::vector<Point2> service_contents(ZService& svc) {
  auto fut = svc.submit_range_list(whole_domain());
  svc.flush();
  return fut.get().points;
}

TEST(ServiceDurability, RestartRecoversBuildAndCommits) {
  if (!durability::kEnabled) GTEST_SKIP() << "durability compiled out";
  const std::string dir = fresh_dir("svc_restart");
  const auto base = datagen::uniform<2>(2000, 1, kMax);
  const auto extra = datagen::uniform<2>(300, 2, kMax);
  std::vector<Point2> oracle(base.begin() + 100, base.end());
  oracle.insert(oracle.end(), extra.begin(), extra.end());
  {
    ZService svc(durable_service_cfg(dir));
    svc.build(base);
    auto ins = svc.submit_insert_batch(extra);
    auto del = svc.submit_delete_batch(
        {base.begin(), base.begin() + 100});
    svc.flush();
    for (auto& f : ins) f.get();
    for (auto& f : del) f.get();
  }
  {
    ZService svc(durable_service_cfg(dir));
    expect_same_multiset(service_contents(svc), oracle);
    const auto s = svc.stats();
    EXPECT_GE(s.recovery_ms, 0.0);
    // Recovered state keeps accumulating durably: commit, restart again.
    auto more = svc.submit_insert_batch({{7, 7}, {8, 8}});
    svc.flush();
    for (auto& f : more) f.get();
  }
  oracle.push_back({7, 7});
  oracle.push_back({8, 8});
  {
    ZService svc(durable_service_cfg(dir));
    expect_same_multiset(service_contents(svc), oracle);
  }
}

TEST(ServiceDurability, WalTailAloneCarriesPostCheckpointCommits) {
  if (!durability::kEnabled) GTEST_SKIP() << "durability compiled out";
  const std::string dir = fresh_dir("svc_wal_tail");
  std::vector<Point2> oracle;
  {
    // No build(): the only checkpoint is the empty startup one, so the
    // entire state must come back from WAL replay alone.
    ZService svc(durable_service_cfg(dir));
    for (int round = 0; round < 5; ++round) {
      std::vector<Point2> batch;
      for (int i = 0; i < 20; ++i) {
        batch.push_back({round * 100 + i, i});
      }
      auto futs = svc.submit_insert_batch(batch);
      svc.flush();
      for (auto& f : futs) f.get();
      oracle.insert(oracle.end(), batch.begin(), batch.end());
    }
    EXPECT_GE(svc.stats().wal_appends, 5u);
  }
  {
    ZService svc(durable_service_cfg(dir));
    expect_same_multiset(service_contents(svc), oracle);
  }
}

TEST(ServiceDurability, AutoCheckpointTruncatesTheLog) {
  if (!durability::kEnabled) GTEST_SKIP() << "durability compiled out";
  const std::string dir = fresh_dir("svc_auto_ckpt");
  auto cfg = durable_service_cfg(dir);
  cfg.durability.checkpoint_every = 2;  // checkpoint every ~2 epochs
  std::vector<Point2> oracle;
  {
    ZService svc(cfg);
    for (int round = 0; round < 8; ++round) {
      std::vector<Point2> batch{{round, 0}, {round, 1}};
      auto futs = svc.submit_insert_batch(batch);
      svc.flush();
      for (auto& f : futs) f.get();
      oracle.insert(oracle.end(), batch.begin(), batch.end());
    }
    // The log was truncated along the way: the tail holds at most the
    // records since the last auto-checkpoint, not all 8 commits.
    std::size_t tail_records = 0;
    std::vector<std::uint8_t> payload;
    for (const auto& [seq, path] : durability::list_segments(dir)) {
      durability::WalSegmentCursor cur(path);
      while (cur.next(payload)) ++tail_records;
    }
    EXPECT_LT(tail_records, 8u);
  }
  {
    ZService svc(cfg);
    expect_same_multiset(service_contents(svc), oracle);
  }
}

TEST(ServiceDurability, OffByDefaultWritesNothing) {
  const std::string dir = fresh_dir("svc_off");
  fs::remove_all(dir);  // service must not create it
  service::ServiceConfig cfg;
  cfg.initial_shards = 4;
  EXPECT_FALSE(cfg.durability.armed());
  ZService svc(cfg);
  svc.build(datagen::uniform<2>(500, 3, kMax));
  auto futs = svc.submit_insert_batch({{1, 1}});
  svc.flush();
  for (auto& f : futs) f.get();
  const auto s = svc.stats();
  EXPECT_EQ(s.wal_appends, 0u);
  EXPECT_EQ(s.wal_bytes, 0u);
  EXPECT_EQ(s.recovery_ms, 0.0);
  EXPECT_FALSE(fs::exists(dir));
}

TEST(ServiceDurability, StatsAndRegistryExportWalSeries) {
  if (!durability::kEnabled) GTEST_SKIP() << "durability compiled out";
  const std::string dir = fresh_dir("svc_stats");
  ZService svc(durable_service_cfg(dir));
  auto futs = svc.submit_insert_batch({{1, 1}, {2, 2}});
  svc.flush();
  for (auto& f : futs) f.get();
  const auto s = svc.stats();
  EXPECT_EQ(s.stats_version, 5u);
  EXPECT_GE(s.wal_appends, 1u);
  EXPECT_GT(s.wal_bytes, 0u);
  const std::string j = s.json();
  EXPECT_NE(j.find("\"wal_appends\":"), std::string::npos);
  EXPECT_NE(j.find("\"wal_bytes\":"), std::string::npos);
  EXPECT_NE(j.find("\"recovery_ms\":"), std::string::npos);
  EXPECT_NE(j.find("\"wal_fsync\":"), std::string::npos);

  // The registry series ride on the telemetry subsystem; with telemetry
  // compiled out the WAL still counts its own appends (checked above) but
  // exports nothing.
  if (telemetry::kEnabled) {
    bool saw_appends = false, saw_recovery = false;
    const auto snap = telemetry::StatsRegistry::instance().snapshot();
    for (const auto& [name, value] : snap.counters) {
      if (name == "psi_wal_appends_total" && value > 0) saw_appends = true;
      if (name == "psi_recovery_ms") saw_recovery = true;
    }
    EXPECT_TRUE(saw_appends);
    EXPECT_TRUE(saw_recovery);
  }
}

// ---------------------------------------------------------------------------
// Distributed crash-restart and host death
// ---------------------------------------------------------------------------

net::DistributedConfig durable_dist_cfg(const std::string& dir) {
  net::DistributedConfig cfg;
  cfg.initial_shards = 4;
  cfg.durability = test_cfg(dir);
  return cfg;
}

TEST(DistributedDurability, RestartRecoversCommittedState) {
  if (!durability::kEnabled) GTEST_SKIP() << "durability compiled out";
  const std::string dir = fresh_dir("dist_restart");
  const auto cfg = durable_dist_cfg(dir);
  const auto base = datagen::uniform<2>(1500, 11, kMax);
  const auto extra = datagen::uniform<2>(200, 12, kMax);
  std::vector<Point2> oracle(base.begin() + 50, base.end());
  oracle.insert(oracle.end(), extra.begin(), extra.end());
  {
    net::LoopbackTransport fabric;
    DService svc(fabric, 2, cfg);
    svc.build(base);
    svc.insert_batch(extra);
    svc.delete_batch({base.begin(), base.begin() + 50});
  }
  {
    net::LoopbackTransport fabric;
    DService svc(fabric, 2, cfg);
    svc.recover_from_disk();
    expect_same_multiset(svc.flatten(), oracle);
    EXPECT_GT(svc.stats().recovery_ms, 0.0);
    // The revived deployment keeps committing durably.
    svc.insert_batch({{9, 9}});
  }
  {
    net::LoopbackTransport fabric;
    DService svc(fabric, 2, cfg);
    svc.recover_from_disk();
    auto oracle2 = oracle;
    oracle2.push_back({9, 9});
    expect_same_multiset(svc.flatten(), oracle2);
  }
}

TEST(DistributedDurability, HostDeathReinstallsShardsOnSurvivors) {
  if (!durability::kEnabled) GTEST_SKIP() << "durability compiled out";
  const std::string dir = fresh_dir("dist_host_death");
  net::LoopbackTransport fabric;
  DService svc(fabric, 2, durable_dist_cfg(dir));
  const auto base = datagen::uniform<2>(1200, 21, kMax);
  svc.build(base);
  const auto extra = datagen::uniform<2>(150, 22, kMax);
  svc.insert_batch(extra);
  std::vector<Point2> oracle = base;
  oracle.insert(oracle.end(), extra.begin(), extra.end());

  svc.crash_host(0);
  svc.recover_host(0);
  expect_same_multiset(svc.flatten(), oracle);
  EXPECT_EQ(svc.size(), oracle.size());

  // The shrunken cluster still serves reads and commits.
  svc.insert_batch({{3, 3}});
  oracle.push_back({3, 3});
  expect_same_multiset(svc.flatten(), oracle);
  EXPECT_EQ(svc.range_count(whole_domain()), oracle.size());
}

}  // namespace
