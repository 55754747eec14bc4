// Recovery: manifest + checkpoints + WAL-tail replay → recovered state.
//
// Startup sequence for one durability directory:
//   1. Read the MANIFEST (if present) and load each referenced shard
//      snapshot — that is the state as of `checkpoint_epoch`.
//   2. Scan WAL segments with seq >= the manifest's watermark, in order,
//      and apply every valid kCommit record whose epoch is
//      > checkpoint_epoch and <= epoch_cut. Replay stops at the first
//      structurally invalid record (torn tail): by construction that is
//      exactly the longest valid prefix of the log.
//   3. Shards named by a replayed record but absent from the manifest
//      (post-checkpoint splits) materialise as empty shards and fill from
//      the run stream.
//
// `epoch_cut` is the distributed-commit cut: a coordinator acknowledges a
// commit only after appending a marker to its own log, so a host record
// beyond the last marker belongs to a commit that was never acknowledged
// and may be missing on sibling hosts — it is dropped uniformly
// everywhere. Single-node recovery passes no cut (everything fsync'd
// before publish was acknowledged-able, so everything valid replays).
//
// Replay is a multiset evaluation of the op runs (insert = append,
// delete = remove one matching point), independent of any index backend:
// recovery rebuilds indexes afterwards by bulk-loading the recovered
// points, which is both simpler and faster than replaying through a tree.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "psi/durability/checkpoint.h"
#include "psi/durability/wal.h"
#include "psi/geometry/point.h"
#include "psi/io/dataset_io.h"

namespace psi::durability {

// Turns one arena checkpoint image back into points — callers that know
// the index type implement it as adopt + flatten. recover() invokes it
// only when WAL-tail replay forces materialisation; a clean restart keeps
// the images intact for the O(bytes) adopt path.
template <typename Coord, int D>
using ArenaDecoder = std::function<std::vector<Point<Coord, D>>(
    std::uint64_t factory_id, const std::vector<std::uint8_t>& image)>;

template <typename Coord, int D>
struct RecoveredShard {
  std::uint64_t key = 0;
  std::uint64_t version = 0;
  std::uint64_t factory_id = 0;
  std::vector<Point<Coord, D>> pts;
  // Non-empty iff the shard survived as a raw arena image (checkpoint
  // format kCkptFormatArena, no WAL tail forced materialisation). Exactly
  // one of pts/image carries the contents.
  std::vector<std::uint8_t> image;
};

template <typename Coord, int D>
struct RecoveredState {
  // False when the directory holds neither a manifest nor any WAL record:
  // nothing was ever made durable here.
  bool found = false;
  std::uint64_t checkpoint_epoch = 0;
  // Highest epoch actually replayed (== checkpoint_epoch if the tail was
  // empty).
  std::uint64_t last_epoch = 0;
  std::size_t records_applied = 0;
  // Records skipped by the epoch filters (already in the checkpoint, or
  // beyond the coordinator cut).
  std::size_t records_skipped = 0;
  // True when replay ended at a corrupt/torn record instead of clean EOF.
  bool torn_tail = false;
  std::vector<RecoveredShard<Coord, D>> shards;

  bool has_images() const {
    for (const auto& s : shards) {
      if (!s.image.empty()) return true;
    }
    return false;
  }

  // Decode every remaining arena image to points (callers that bulk-load
  // through a topology reshuffle need the multiset, not the structure).
  void materialize(const ArenaDecoder<Coord, D>& decoder) {
    for (auto& s : shards) {
      if (s.image.empty()) continue;
      s.pts = decoder(s.factory_id, s.image);
      s.image.clear();
      s.image.shrink_to_fit();
    }
  }

  std::vector<Point<Coord, D>> all_points() const {
    // Opaque images hold points this multiset must include — losing them
    // silently would be data loss; materialize() first.
    if (has_images()) {
      throw std::logic_error(
          "recovery: all_points() with unmaterialized arena images");
    }
    std::vector<Point<Coord, D>> out;
    std::size_t total = 0;
    for (const auto& s : shards) total += s.pts.size();
    out.reserve(total);
    for (const auto& s : shards) {
      out.insert(out.end(), s.pts.begin(), s.pts.end());
    }
    return out;
  }
};

namespace detail {

// Multiset of the points one delete run still has to remove.
template <typename Coord, int D>
using DeleteCounts =
    std::unordered_map<Point<Coord, D>, std::size_t, PointHash<Coord, D>>;

// Remove from `pts` one occurrence per outstanding count, in one pass,
// decrementing (and dropping exhausted) entries of `counts` as it goes.
// Stops scanning as soon as nothing is left to remove.
template <typename Coord, int D>
void erase_counted(std::vector<Point<Coord, D>>& pts,
                   DeleteCounts<Coord, D>& counts) {
  std::size_t kept = 0;
  std::size_t i = 0;
  for (; i < pts.size() && !counts.empty(); ++i) {
    const auto it = counts.find(pts[i]);
    if (it == counts.end()) {
      pts[kept++] = pts[i];
    } else if (--it->second == 0) {
      counts.erase(it);
    }
  }
  pts.erase(pts.begin() + static_cast<std::ptrdiff_t>(kept),
            pts.begin() + static_cast<std::ptrdiff_t>(i));
}

}  // namespace detail

template <typename Coord, int D>
RecoveredState<Coord, D> recover(
    const std::string& dir,
    std::uint64_t epoch_cut = std::numeric_limits<std::uint64_t>::max(),
    const ArenaDecoder<Coord, D>& decoder = nullptr) {
  using point_t = Point<Coord, D>;
  RecoveredState<Coord, D> out;

  auto manifest = read_manifest(dir);
  std::uint64_t watermark = 0;
  if (manifest) {
    out.found = true;
    out.checkpoint_epoch = manifest->epoch;
    out.last_epoch = manifest->epoch;
    watermark = manifest->watermark;
    out.shards.reserve(manifest->shards.size());
    for (const auto& s : manifest->shards) {
      RecoveredShard<Coord, D> r;
      r.key = s.key;
      r.version = s.version;
      r.factory_id = s.factory_id;
      if (s.format == kCkptFormatArena) {
        // The image bytes load verbatim; validation (CRC, fingerprint)
        // happens where they are adopted or decoded, never here.
        std::ifstream in(dir + "/" + s.file, std::ios::binary);
        if (!in) {
          throw std::runtime_error("recovery: missing checkpoint file " +
                                   s.file);
        }
        r.image.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
      } else {
        r.pts = io::load_binary<Coord, D>(dir + "/" + s.file);
      }
      out.shards.push_back(std::move(r));
    }
  }

  // WAL replay is a multiset evaluation over point vectors (deletes may
  // search every shard), so the first record that actually applies forces
  // every arena image down to points. A clean tail — the common restart
  // after an orderly checkpoint — never decodes anything.
  bool materialized = false;
  auto ensure_points = [&] {
    if (materialized) return;
    materialized = true;
    if (!out.has_images()) return;
    if (!decoder) {
      throw std::runtime_error(
          "recovery: WAL tail replay over an arena checkpoint requires a "
          "decoder");
    }
    out.materialize(decoder);
  };

  auto slot_of = [&out](std::uint64_t key) -> RecoveredShard<Coord, D>& {
    for (auto& s : out.shards) {
      if (s.key == key) return s;
    }
    RecoveredShard<Coord, D> fresh;
    fresh.key = key;
    out.shards.push_back(std::move(fresh));
    return out.shards.back();
  };

  std::vector<std::uint8_t> payload;
  for (const auto& [seq, path] : list_segments(dir)) {
    if (seq < watermark) continue;  // truncation raced the crash; skip
    WalSegmentCursor cur(path);
    if (!cur.valid()) {
      out.torn_tail = true;
      return out;
    }
    while (cur.next(payload)) {
      RecordKind kind;
      try {
        kind = record_kind(payload);
      } catch (const net::WireError&) {
        out.torn_tail = true;
        return out;
      }
      if (kind == RecordKind::kCommitMark) continue;
      if (kind != RecordKind::kCommit) {
        // Unknown kind: a format from the future. Stop, like a tear —
        // replaying past a record we cannot interpret would reorder ops.
        out.torn_tail = true;
        return out;
      }
      CommitRecord<point_t> rec;
      try {
        rec = decode_commit_record<point_t>(payload);
      } catch (const net::WireError&) {
        out.torn_tail = true;
        return out;
      }
      if (rec.epoch <= out.checkpoint_epoch || rec.epoch > epoch_cut) {
        ++out.records_skipped;
        continue;
      }
      ensure_points();
      out.found = true;
      for (auto& sh : rec.shards) {
        auto& slot = slot_of(sh.key);
        for (const auto& run : sh.runs) {
          if (!run.is_delete) {
            slot.pts.insert(slot.pts.end(), run.pts.begin(), run.pts.end());
            continue;
          }
          // One pass over the shard per run, not per delete: each point
          // of the run removes ONE matching occurrence. Own shard first;
          // then everywhere. Splits and merges between the checkpoint and
          // the crash re-key shards without logging the redistribution
          // (installs are not WAL events), so a post-split delete can
          // target a key whose victim still sits under the pre-split key
          // in the recovered state. The union is what recovery promises
          // (callers bulk-load all_points()); a point absent everywhere
          // is a no-op.
          detail::DeleteCounts<Coord, D> counts;
          for (const auto& p : run.pts) ++counts[p];
          detail::erase_counted(slot.pts, counts);
          for (auto& other : out.shards) {
            if (counts.empty()) break;
            if (&other != &slot) detail::erase_counted(other.pts, counts);
          }
        }
        if (sh.version > slot.version) slot.version = sh.version;
      }
      if (rec.epoch > out.last_epoch) out.last_epoch = rec.epoch;
      ++out.records_applied;
    }
    if (cur.torn()) {
      out.torn_tail = true;
      return out;
    }
  }
  return out;
}

}  // namespace psi::durability
