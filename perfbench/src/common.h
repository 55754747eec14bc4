// Shared machinery of the end-to-end benchmark: run options, clocks,
// percentiles, the result line, the input fingerprint, the open-loop update
// generator, the in-benchmark tracer and the no-progress watchdog.
//
// Everything here sits *outside* the library: spans are recorded around the
// benchmark's own calls into the public API, and per-layer counters come
// from the public stats() observers.

#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "psi/psi.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Test hooks (not used by the measured runs): shrink every size, and
  // corrupt one checked answer so the oracle must catch it.
  bool tiny = false;
  bool inject_wrong = false;
  // Working directory for WAL/checkpoint files and the trace dump; always
  // inside the checkout (run.py passes its build directory).
  std::string work_dir = ".";
};

// ---------------------------------------------------------------------------
// Clocks and statistics
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Nearest-rank percentile of an unsorted sample (q in [0, 100]).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q / 100.0 * static_cast<double>(v.size());
  std::size_t idx = rank <= 1 ? 0 : static_cast<std::size_t>(std::ceil(rank)) - 1;
  idx = std::min(idx, v.size() - 1);
  return v[idx];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }

// Nanosecond durations as microseconds.
inline std::vector<double> us_of(std::vector<double> ns) {
  for (auto& x : ns) x /= 1e3;
  return ns;
}

// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Op accounting + the result line
// ---------------------------------------------------------------------------

// Process-wide op ledger. Every op the load generators issue is counted as
// attempted; it counts as failed when it threw, returned a wrong answer, or
// was still unfinished when the watchdog fired.
struct Ledger {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> finished{0};  // completed, ok or failed
  std::atomic<std::uint64_t> failed{0};
  std::atomic<bool> wrong{false};          // an oracle mismatch happened

  void begin(std::uint64_t n = 1) {
    attempted.fetch_add(n, std::memory_order_relaxed);
  }
  void done(std::uint64_t n = 1) {
    finished.fetch_add(n, std::memory_order_relaxed);
  }
  void fail(std::uint64_t n = 1) {
    failed.fetch_add(n, std::memory_order_relaxed);
    finished.fetch_add(n, std::memory_order_relaxed);
  }
  void mismatch(const std::string& what);
};

Ledger& ledger();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Prints the final JSON line (the last line of stdout) and returns the exit
// code: 0 when every op succeeded and every check passed.
int emit_result(const std::vector<Metric>& metrics);

// A human-readable note line ("# ..."), printed to stdout before the result.
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// ---------------------------------------------------------------------------
// Input fingerprint
// ---------------------------------------------------------------------------

class Fingerprint {
 public:
  template <typename T>
  void add(const std::vector<T>& v) {
    add_bytes(v.data(), v.size() * sizeof(T));
    mix(v.size());  // separates consecutive vectors
  }
  // Query descriptors field by field: their padding bytes are unspecified.
  template <typename Desc>
  void add_queries(const std::vector<Desc>& qs) {
    for (const auto& q : qs) {
      mix(static_cast<std::uint64_t>(q.kind));
      add_bytes(&q.box, sizeof(q.box));
      add_bytes(&q.center, sizeof(q.center));
      mix(std::bit_cast<std::uint64_t>(q.radius));
      mix(q.k);
    }
    mix(qs.size());
  }
  void mix(std::uint64_t x) { h_ = psi::hash64(h_ ^ x, 0x9e3779b97f4a7c15ULL); }
  std::uint64_t value() const { return h_; }

 private:
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, b + i, 8);
      h_ = (h_ ^ w) * 0x100000001b3ULL;
      h_ ^= h_ >> 29;
    }
    for (; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------
// Tracer: spans recorded from the benchmark's own call sites.
// ---------------------------------------------------------------------------
//
// Each span holds a name ("layer.call"), start/end, its parent span and a
// request id; spans live in per-thread in-memory buffers and are written
// out once at the end. Disabled, a Span is one branch on a plain bool.

struct SpanRec {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
  std::uint32_t thread;
};

class Tracer {
 public:
  static Tracer& instance();

  void enable() { on_ = true; }
  bool on() const { return on_; }

  std::uint64_t next_id() {
    return ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void record(const SpanRec& r);
  std::vector<SpanRec> all() const;

  // Per-name self time (duration minus the part covered by child spans),
  // and per-layer (name prefix up to the first '.') totals.
  struct Summary {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::vector<Summary> summarize(bool by_layer) const;
  // Durations (ns) of every span with this name, in recording order per
  // thread.
  std::vector<double> durations_ns(const char* name) const;

  bool write_json(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<SpanRec> spans;
  };
  bool on_ = false;
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // one per recording thread
  Buffer* local();
};

// RAII span. The parent is the innermost open span of the same thread; the
// request id is inherited from the parent unless given.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool on_;
  std::int64_t start_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t request_ = 0;
  std::uint64_t prev_request_ = 0;
};

// ---------------------------------------------------------------------------
// Watchdog: run deadline + no-progress detector.
// ---------------------------------------------------------------------------
//
// Fires when the ledger's finished count has not moved for `stall_s`
// seconds during a phase that expects progress, or when the whole run
// passes its deadline. It reports the workload and phase, counts every
// unfinished op as failed, prints the result line with correct=false and
// terminates the process (threads blocked in a deadlock cannot be joined).

class Watchdog {
 public:
  Watchdog(std::string workload, double deadline_s, double stall_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Enter a named phase. Phases run by the benchmark itself (setup, checks)
  // bump progress via tick(); traffic phases progress through the ledger.
  void phase(const char* name);
  void tick() { beats_.fetch_add(1, std::memory_order_relaxed); }
  // During traffic every load stream must progress on its own: a writer
  // stuck behind readers that still complete is a stall too. The counters
  // must outlive the matching unwatch().
  void watch(const char* stream, const std::atomic<std::uint64_t>* done);
  void unwatch();

 private:
  struct Stream {
    const char* name;
    const std::atomic<std::uint64_t>* done;
    std::uint64_t last = 0;
    std::int64_t last_change = 0;
  };
  void run();
  [[noreturn]] void fire(const char* reason, const char* stream, double idle_s,
                         double run_s);
  std::string workload_;
  double deadline_s_;
  double stall_s_;
  std::int64_t t0_;
  std::atomic<const char*> phase_{"init"};
  std::atomic<std::uint64_t> beats_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Stream> streams_;  // guarded by mu_
  std::thread thread_;  // declared last: uses the members above
};

// ---------------------------------------------------------------------------
// Open-loop update ticks
// ---------------------------------------------------------------------------

inline constexpr int kTickMs = 10;

// One tick of moves: delete `dels[i]`, insert `ins[i]`.
template <typename P>
struct Tick {
  std::vector<P> dels;
  std::vector<P> ins;
};

// `count` ticks of `per_tick` moves over `movers` (their start positions);
// every move jitters one mover by up to `jitter` per axis, clamped to
// [0, coord_max]. Movers are visited round-robin in a seeded order, so each
// mover's deletes always name its current position.
template <typename P>
std::vector<Tick<P>> make_move_ticks(std::vector<P> movers, std::size_t count,
                                     std::size_t per_tick, std::int64_t jitter,
                                     std::int64_t coord_max,
                                     std::uint64_t seed) {
  psi::Rng rng(psi::hash64(seed, 0x7ac5));
  std::vector<std::size_t> order(movers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.ith_bounded(i, i)]);
  }
  std::vector<Tick<P>> ticks(count);
  std::uint64_t draw = 0;
  std::size_t cursor = 0;
  for (auto& t : ticks) {
    t.dels.reserve(per_tick);
    t.ins.reserve(per_tick);
    for (std::size_t j = 0; j < per_tick && !movers.empty(); ++j) {
      P& m = movers[order[cursor]];
      cursor = (cursor + 1) % order.size();
      t.dels.push_back(m);
      for (int d = 0; d < P::kDim; ++d) {
        const auto r = static_cast<std::int64_t>(rng.ith_bounded(
            ++draw + (1ULL << 40), 2 * static_cast<std::uint64_t>(jitter) + 1));
        m[d] = std::clamp<std::int64_t>(m[d] + r - jitter, 0, coord_max);
      }
      t.ins.push_back(m);
    }
  }
  return ticks;
}

// `count` distinct movers: one base point from each of `count` equal
// strides, so they spread over the whole set.
template <typename P>
std::vector<P> pick_movers(const std::vector<P>& base, std::size_t count,
                           std::uint64_t seed) {
  const psi::Rng pick(seed);
  const std::size_t stride = base.size() / count;
  std::vector<P> out;
  out.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    out.push_back(base[j * stride + pick.ith_bounded(j, stride)]);
  }
  return out;
}

// The tick schedule of one open-loop generator: tick i is due at
// t0 + i * kTickMs. Records how late each tick was issued (generator lag)
// and, once its work completes, the latency from its due time.
class TickLog {
 public:
  void reserve(std::size_t n) {
    lag_ms_.reserve(n);
    latency_ms_.reserve(n);
  }
  void issued(std::int64_t due_ns, std::int64_t at_ns) {
    lag_ms_.push_back(ns_to_ms(std::max<std::int64_t>(0, at_ns - due_ns)));
  }
  void completed(std::int64_t due_ns, std::int64_t at_ns) {
    std::lock_guard<std::mutex> g(mu_);
    latency_ms_.push_back({due_ns, ns_to_ms(at_ns - due_ns)});
  }
  // (due time, latency ms) of every completed tick.
  std::vector<std::pair<std::int64_t, double>> latency_ms() const {
    std::lock_guard<std::mutex> g(mu_);
    return latency_ms_;
  }
  const std::vector<double>& lag_ms() const { return lag_ms_; }

 private:
  mutable std::mutex mu_;
  std::vector<double> lag_ms_;  // generator thread only
  std::vector<std::pair<std::int64_t, double>> latency_ms_;  // guarded by mu_
};

// Tail percentiles are reported as the median over the run's consecutive
// windows of each window's percentile, so one rare chained stall or one
// burst of host contention moves one window, not the run's figure. A
// window lasts at least the shortest whole number of seconds expected to
// hold kMinWindowSamples samples, so at least ten lie beyond each window's
// p99: 10 s for the 100 update ticks per second, 1 s for queries.
inline constexpr std::size_t kMinWindowSamples = 1000;

// `samples` are (time, value) pairs; time is bucketed from t0_ns.
inline double windowed_percentile(
    const std::vector<std::pair<std::int64_t, double>>& samples,
    std::int64_t t0_ns, double run_s, double q) {
  if (samples.empty()) return 0;
  const double per_s = static_cast<double>(samples.size()) / run_s;
  const double window_s = std::max(
      1.0, std::ceil(static_cast<double>(kMinWindowSamples) / per_s));
  // Equal windows, each at least window_s long.
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(run_s / window_s));
  const double len = run_s / static_cast<double>(windows);
  std::vector<std::vector<double>> by_window(windows);
  for (const auto& [t, v] : samples) {
    const double at_s = static_cast<double>(t - t0_ns) / 1e9;
    const auto w = static_cast<std::size_t>(std::max(0.0, at_s / len));
    by_window[std::min(w, windows - 1)].push_back(v);
  }
  std::vector<double> per_window;
  for (auto& w : by_window) {
    if (!w.empty()) per_window.push_back(percentile(std::move(w), q));
  }
  return median(std::move(per_window));
}

inline std::vector<double> values_of(
    const std::vector<std::pair<std::int64_t, double>>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(s.second);
  return out;
}

// `count` draws of a zipf(1.0) rank over `m` items (CDF inversion).
inline std::vector<std::uint32_t> zipf_draws(std::size_t m, std::size_t count,
                                      std::uint64_t seed) {
  std::vector<double> cdf(m);
  double acc = 0;
  for (std::size_t i = 0; i < m; ++i) {
    acc += 1.0 / static_cast<double>(i + 1);
    cdf[i] = acc;
  }
  const psi::Rng rng(seed);
  std::vector<std::uint32_t> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.ith_double(i) * acc;
    out[i] = static_cast<std::uint32_t>(
        std::min<std::size_t>(m - 1, std::lower_bound(cdf.begin(), cdf.end(), u) -
                                         cdf.begin()));
  }
  return out;
}

// Boxes around `anchors` sized to hold ~`target` points of `base`: the
// half-side is the L-infinity distance from the anchor to its
// (target * s / n)-th nearest point in a fixed sample of s base points.
template <typename P>
std::vector<psi::Box<typename P::coord_t, P::kDim>> calibrated_boxes(
    const std::vector<P>& base, const std::vector<P>& anchors,
    std::size_t target, std::int64_t coord_max, std::uint64_t seed) {
  using B = psi::Box<typename P::coord_t, P::kDim>;
  const std::size_t s = std::min<std::size_t>(base.size(), 80'000);
  const psi::Rng rng(seed);
  std::vector<P> sample(s);
  for (std::size_t i = 0; i < s; ++i) {
    sample[i] = base[rng.ith_bounded(i, base.size())];
  }
  const std::size_t rank =
      std::clamp<std::size_t>(target * s / base.size(), 1, s) - 1;
  std::vector<B> out(anchors.size());
  std::vector<std::int64_t> dist(s);
  for (std::size_t a = 0; a < anchors.size(); ++a) {
    for (std::size_t i = 0; i < s; ++i) {
      std::int64_t m = 0;
      for (int d = 0; d < P::kDim; ++d) {
        m = std::max<std::int64_t>(m, std::abs(sample[i][d] - anchors[a][d]));
      }
      dist[i] = m;
    }
    std::nth_element(dist.begin(),
                     dist.begin() + static_cast<std::ptrdiff_t>(rank), dist.end());
    const std::int64_t h = dist[rank];
    for (int d = 0; d < P::kDim; ++d) {
      out[a].lo[d] = std::max<std::int64_t>(0, anchors[a][d] - h);
      out[a].hi[d] = std::min<std::int64_t>(coord_max, anchors[a][d] + h);
    }
  }
  return out;
}

// Sleep until an absolute steady-clock time in ns.
inline void sleep_until_ns(std::int64_t t_ns) {
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(t_ns)));
}

// ---------------------------------------------------------------------------
// Scheduler counter deltas
// ---------------------------------------------------------------------------

struct SchedDelta {
  psi::SchedulerCounters before{};
  void start() { before = psi::Scheduler::telemetry_counters(); }
  psi::SchedulerCounters since() const {
    const auto now = psi::Scheduler::telemetry_counters();
    psi::SchedulerCounters d;
    d.submits = now.submits - before.submits;
    d.foreign_jobs = now.foreign_jobs - before.foreign_jobs;
    d.steals = now.steals - before.steals;
    d.parks = now.parks - before.parks;
    return d;
  }
};

// Write back every dirty page the benchmark left behind (removed or copied
// WAL directories) before a timed phase, so the phase's own fsyncs do not
// queue behind that writeback.
inline void settle_disk() { ::sync(); }

// Multiset equality of two point sets (sorted copies).
template <typename P>
bool same_multiset(std::vector<P> a, std::vector<P> b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

// base - every tick's deletes + every tick's inserts, over the first `n`
// ticks, as a sorted multiset. Every delete names a point present when it
// runs, so the multiset difference is the sequential result.
template <typename P>
std::vector<P> oracle_after(const std::vector<P>& base,
                            const std::vector<Tick<P>>& ticks, std::size_t n) {
  std::vector<P> plus = base;
  std::vector<P> minus;
  for (std::size_t i = 0; i < n; ++i) {
    plus.insert(plus.end(), ticks[i].ins.begin(), ticks[i].ins.end());
    minus.insert(minus.end(), ticks[i].dels.begin(), ticks[i].dels.end());
  }
  std::sort(plus.begin(), plus.end());
  std::sort(minus.begin(), minus.end());
  std::vector<P> out;
  out.reserve(plus.size());
  std::set_difference(plus.begin(), plus.end(), minus.begin(), minus.end(),
                      std::back_inserter(out));
  return out;
}

// Workload entry points (one translation unit each).
int run_fleet_churn(const Options& opt);
int run_scan_heavy(const Options& opt);
int run_hotspot_cluster(const Options& opt);
int run_hotspot_loopback(const Options& opt);

}  // namespace perfbench
