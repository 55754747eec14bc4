// The workload harness: one load shape and one run sequence over either
// backend of backends.h (in-process SpatialService or DistributedService).
//
// Load shape: one open-loop update generator issuing a tick of updates
// every kTickMs, each tick timed from its due time until its last op
// finished; and `clients` closed-loop query clients, each sending its next
// query through query(QueryDesc, ReadOptions) when the previous one
// returned.
//
// Phases: setup (x kSetups, median reported), traffic (with a fixed sample
// of the issued queries re-checked against the oracle on the snapshot they
// ran on), drain, checkpoint, a fixed tail of ticks, final multiset check,
// restart (x kRestarts on copies of the WAL directory, median reported,
// the first one re-checked), and in the traced run the core replay.

#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backends.h"
#include "common.h"
#include "core_replay.h"
#include "per_layer.h"

namespace perfbench {

template <typename Backend>
struct WorkloadSpec {
  using P = typename Backend::P;
  using Desc = typename Backend::Desc;

  const char* name = "";
  std::string shape;  // extra fields of the first note line
  typename Backend::Config cfg;
  std::vector<P> base;
  std::vector<Tick<P>> ticks;  // traffic ticks, then tail_ticks more
  std::size_t traffic_ticks = 0;
  std::size_t tail_ticks = 0;
  std::vector<Desc> queries;  // client c sends queries c, c+clients, ...
  // Per query: 1 = read through the query cache, 0 = bypass it. Empty: the
  // cache is bypassed for every query.
  std::vector<std::uint8_t> cached;
  int clients = 1;
  double stall_s = 30;  // the watchdog's no-progress limit
};

template <typename Backend>
class Workload {
 public:
  using P = typename Backend::P;
  using Desc = typename Backend::Desc;
  using Kind = typename Desc::Kind;
  using Held = typename Backend::Held;

  // Set-ups and restarts per run (medians reported), queries re-checked
  // during the traffic, and the watchdog's run deadline.
  static constexpr int kSetups = 3;
  static constexpr int kRestarts = 5;
  static constexpr std::size_t kChecks = 8;
  static constexpr double kDeadlineS = 170;

  Workload(const Options& opt, WorkloadSpec<Backend> spec)
      : opt_(opt),
        spec_(std::move(spec)),
        wd_(spec_.name, kDeadlineS, spec_.stall_s),
        dir_(opt.work_dir + "/" + spec_.name + "-wal") {
    // result_pts_per_s counts the points of range and ball list queries; a
    // workload that sends none (fleet-churn) counts its kNN points instead.
    knn_pts_ = std::none_of(spec_.queries.begin(), spec_.queries.end(),
                            [](const Desc& q) { return is_scan(q); });
  }

  int run() {
    Fingerprint fp;
    fp.add(spec_.base);
    for (const auto& t : spec_.ticks) {
      fp.add(t.dels);
      fp.add(t.ins);
    }
    fp.add_queries(spec_.queries);
    fp.add(spec_.cached);
    note("workload=%s seed=%llu input_fingerprint=%016llx base=%zu ticks=%zu "
         "tail_ticks=%zu queries=%zu clients=%d workers=%d %s",
         spec_.name, static_cast<unsigned long long>(opt_.seed),
         static_cast<unsigned long long>(fp.value()), spec_.base.size(),
         spec_.traffic_ticks, spec_.tail_ticks, spec_.queries.size(),
         spec_.clients, psi::num_workers(), spec_.shape.c_str());

    setup();
    traffic();
    // Peak RSS of the service under load, before the checks below copy
    // point sets.
    peak_rss_mb_ = peak_rss_mb();
    tail_and_check();
    restart();
    std::filesystem::remove_all(dir_);
    return finish();
  }

 private:
  bool cached(std::size_t i) const {
    return !spec_.cached.empty() && spec_.cached[i % spec_.cached.size()] != 0;
  }

  static bool is_scan(const Desc& q) {
    return q.kind == Kind::kRangeList || q.kind == Kind::kBallList;
  }

  // The readiness probe: the first query of the list answered.
  void probe(const Backend& be) {
    const Desc& q = spec_.queries.front();
    const std::size_t n =
        run_query(be.service(), q, Backend::read_options(0, cached(0)),
                  static_cast<Answer<P>*>(nullptr));
    const bool ok = q.kind == Kind::kKnn
                        ? n == std::min(q.k, be.service().size())
                        : n <= be.service().size();
    if (!ok) ledger().mismatch(std::string(spec_.name) + ": readiness probe");
  }

  void setup() {
    wd_.phase("setup");
    std::vector<double> secs;
    for (int i = 0; i < kSetups; ++i) {
      be_.reset();
      std::filesystem::remove_all(dir_);
      settle_disk();
      const std::int64_t t0 = now_ns();
      {
        Span s(Backend::kSetupSpan);
        be_ = std::make_unique<Backend>(spec_.cfg, dir_, &spec_.base);
        probe(*be_);
      }
      secs.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      wd_.tick();
    }
    setup_s_ = median(secs);
    note("setup_s samples=%zu min=%.4f max=%.4f", secs.size(),
         *std::min_element(secs.begin(), secs.end()),
         *std::max_element(secs.begin(), secs.end()));
  }

  struct Pending {
    std::int64_t due_ns;
    typename Backend::Pending ops;
  };

  void traffic() {
    wd_.phase("traffic");
    Backend& be = *be_;
    stats_before_ = be.stats();
    sched_.start();
    const std::int64_t t0 = now_ns() + 20'000'000;  // first tick in 20 ms
    t_end_ = t0 + static_cast<std::int64_t>(spec_.traffic_ticks) * kTickMs * 1'000'000;
    t0_ = t0;

    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> pending;
    bool gen_done = false;
    std::atomic<std::uint64_t> ticks_done{0};
    ticks_.reserve(spec_.traffic_ticks);

    std::thread completer([&] {
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lk(mu);
          cv.wait(lk, [&] { return !pending.empty() || gen_done; });
          if (pending.empty()) return;
          p = std::move(pending.front());
          pending.pop_front();
        }
        ticks_.completed(p.due_ns, be.complete(p.ops));
        ticks_done.fetch_add(1, std::memory_order_relaxed);
      }
    });

    std::thread generator([&] {
      for (std::size_t i = 0; i < spec_.traffic_ticks; ++i) {
        const std::int64_t due = t0 + static_cast<std::int64_t>(i) * kTickMs * 1'000'000;
        sleep_until_ns(due);
        ticks_.issued(due, now_ns());
        const Tick<P>& t = spec_.ticks[i];
        ledger().begin(t.dels.size() + t.ins.size());
        Pending p{due, be.submit(t, i + 1)};
        {
          std::lock_guard<std::mutex> g(mu);
          pending.push_back(std::move(p));
        }
        cv.notify_one();
      }
      {
        std::lock_guard<std::mutex> g(mu);
        gen_done = true;
      }
      cv.notify_one();
    });

    const int nc = spec_.clients;
    std::vector<std::atomic<std::uint64_t>> client_done(nc);
    clients_.assign(nc, {});
    std::vector<std::thread> clients;
    for (int c = 0; c < nc; ++c) {
      clients.emplace_back([&, c] { client(c, client_done[c]); });
    }
    wd_.watch("updates", &ticks_done);
    for (int c = 0; c < nc; ++c) wd_.watch("queries", &client_done[c]);

    generator.join();
    for (auto& t : clients) t.join();
    t_window_end_ = now_ns();
    sched_delta_ = sched_.since();
    wd_.phase("drain");
    completer.join();
    wd_.unwatch();
    be.flush();
    stats_after_ = be.stats();

    std::size_t checked = 0;
    for (const auto& c : clients_) checked += c.checked;
    note("check: %zu of %zu sampled queries re-checked against the oracle on "
         "the snapshot they ran on",
         checked, kChecks);
    if (checked == 0) {
      ledger().mismatch(std::string(spec_.name) +
                        ": no query could be re-checked during the traffic");
    }
  }

  // Re-checks are due at kChecks evenly spaced times; check j belongs to
  // client j % clients, which re-checks its first query issued after the
  // due time whose snapshot it can pin down: a held snapshot (pin) of the
  // same epoch before and after the query means the query ran on it.
  void client(int c, std::atomic<std::uint64_t>& done) {
    const Backend& be = *be_;
    ClientLog& log = clients_[c];
    log.lat.reserve(1 << 18);
    std::vector<std::int64_t> check_due;
    for (std::size_t j = c; j < kChecks; j += spec_.clients) {
      const auto share = static_cast<std::int64_t>(2 * j + 1);
      check_due.push_back(
          t0_ + (t_end_ - t0_) * share / static_cast<std::int64_t>(2 * kChecks));
    }
    const std::size_t nq = spec_.queries.size();
    for (std::size_t i = static_cast<std::size_t>(c);; i += spec_.clients) {
      if (now_ns() < t0_) sleep_until_ns(t0_);
      if (now_ns() >= t_end_) break;
      const Desc& q = spec_.queries[i % nq];
      const std::uint64_t req = (1ULL << 62) | i;
      ledger().begin();
      if (Tracer::instance().on()) be.trace_snapshot(req);
      std::optional<Held> held;
      if (log.checked < check_due.size() && now_ns() >= check_due[log.checked]) {
        held.emplace(be.hold());
      }
      Answer<P> got;
      bool ok = true;
      try {
        const std::int64_t t0 = now_ns();
        std::size_t n = 0;
        {
          Span s(Backend::query_span(i, cached(i)), req);
          n = run_query(be.service(), q, Backend::read_options(i, cached(i)),
                        held ? &got : nullptr);
        }
        log.lat.push_back({i, t0, ns_to_us(now_ns() - t0)});
        if (q.kind == Kind::kKnn && n != std::min(q.k, spec_.base.size())) {
          ledger().mismatch(std::string(spec_.name) + ": kNN returned " +
                            std::to_string(n) + " points");
          ok = false;
        }
        if (held) ok = recheck(be, *held, q, i, got, log) && ok;
        if (is_scan(q) || (knn_pts_ && q.kind == Kind::kKnn)) log.pts += n;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: query failed: %s\n", e.what());
        ok = false;
      }
      if (ok) {
        ledger().done();
      } else {
        ledger().fail();
      }
      done.fetch_add(1, std::memory_order_relaxed);
    }
  }

  struct QSample {
    std::size_t i;  // position in the query list
    std::int64_t start_ns;
    double us;
  };
  struct ClientLog {
    std::vector<QSample> lat;
    std::uint64_t pts = 0;
    std::size_t checked = 0;
    std::int64_t paused_ns = 0;  // spent re-checking, not querying
  };

  // Compares the answer `got` of query `i` with the oracle on `held`, if
  // the query provably ran on it. The time spent here is the client's
  // paused time, left out of its throughput.
  bool recheck(const Backend& be, const Held& held, const Desc& q,
               std::size_t i, Answer<P>& got, ClientLog& log) {
    const std::int64_t t0 = now_ns();
    bool ok = true;
    std::optional<Answer<P>> want;
    if (be.hold().epoch() == held.epoch()) {
      try {
        want = be.oracle(held, q);
      } catch (const psi::api::EpochRetired&) {
        // A cluster pin left the hosts' retention window before the oracle
        // read it: re-check a later query instead.
      }
    }
    if (want) {
      if (opt_.inject_wrong && !injected_.exchange(true)) {
        got.n += 1;
        if (!got.pts.empty()) got.pts.pop_back();
      }
      ++log.checked;
      if (!same_answer(q, got, *want)) {
        ledger().mismatch(std::string(spec_.name) + ": query " +
                          std::to_string(i) + " at epoch " +
                          std::to_string(held.epoch()) +
                          " disagrees with the oracle");
        ok = false;
      }
    }
    log.paused_ns += now_ns() - t0;
    return ok;
  }

  void check_state(const Backend& be, const char* what) {
    ledger().begin();
    if (same_multiset(be.flatten(), oracle_)) {
      ledger().done();
    } else {
      ledger().mismatch(std::string(spec_.name) + ": " + what +
                        " flatten() differs from base + applied updates");
      ledger().fail();
    }
    wd_.tick();
  }

  void tail_and_check() {
    Backend& be = *be_;
    wd_.phase("checkpoint");
    {
      Span s("durability.checkpoint");
      const std::int64_t t0 = now_ns();
      be.checkpoint();
      checkpoint_s_ = static_cast<double>(now_ns() - t0) / 1e9;
    }
    const std::uint64_t e0 = be.epoch();
    wd_.phase("tail");
    be.begin_tail();
    for (std::size_t i = 0; i < spec_.tail_ticks; ++i) {
      const Tick<P>& t = spec_.ticks[spec_.traffic_ticks + i];
      ledger().begin(t.dels.size() + t.ins.size());
      auto p = be.submit(t, spec_.traffic_ticks + i + 1);
      be.flush();
      be.complete(p);
      wd_.tick();
    }
    be.flush();
    tail_records_ = static_cast<double>(be.epoch() - e0);
    wd_.phase("final-check");
    oracle_ = oracle_after(spec_.base, spec_.ticks,
                           spec_.traffic_ticks + spec_.tail_ticks);
    check_state(be, "final");
    final_stats_ = be.stats();
    be_.reset();
  }

  void restart() {
    wd_.phase("restart");
    std::vector<double> secs;
    for (int r = 0; r < kRestarts; ++r) {
      const std::string copy = dir_ + "-restart";
      std::filesystem::remove_all(copy);
      std::filesystem::copy(dir_, copy, std::filesystem::copy_options::recursive);
      settle_disk();
      const std::int64_t t0 = now_ns();
      std::unique_ptr<Backend> be;
      {
        Span s(Backend::kRestartSpan);
        be = std::make_unique<Backend>(spec_.cfg, copy, nullptr);
        probe(*be);
      }
      secs.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      if (r == 0) check_state(*be, "restarted");
      be.reset();
      std::filesystem::remove_all(copy);
      wd_.tick();
    }
    restart_s_ = median(secs);
    std::size_t tail_ops = 0;
    for (std::size_t i = 0; i < spec_.tail_ticks; ++i) {
      const auto& t = spec_.ticks[spec_.traffic_ticks + i];
      tail_ops += t.dels.size() + t.ins.size();
    }
    note("restart_s samples=%zu min=%.4f max=%.4f tail_ops=%zu tail_records=%.0f",
         secs.size(), *std::min_element(secs.begin(), secs.end()),
         *std::max_element(secs.begin(), secs.end()), tail_ops, tail_records_);
  }

  int finish() {
    const double window_s = static_cast<double>(t_window_end_ - t0_) / 1e9;
    const auto upd_t = ticks_.latency_ms();
    const std::vector<double> upd = values_of(upd_t);
    std::vector<std::pair<std::int64_t, double>> qlat_t;
    // Per-client throughput over the client's own querying time.
    double qps = 0, pts_per_s = 0, paused_s = 0;
    for (const auto& c : clients_) {
      for (const auto& q : c.lat) qlat_t.push_back({q.start_ns, q.us});
      const double busy_s =
          window_s - static_cast<double>(c.paused_ns) / 1e9;
      qps += static_cast<double>(c.lat.size()) / busy_s;
      pts_per_s += static_cast<double>(c.pts) / busy_s;
      paused_s += static_cast<double>(c.paused_ns) / 1e9;
    }
    const std::vector<double> qlat = values_of(qlat_t);
    const double run_s = opt_.seconds;
    note("samples: update_ticks=%zu queries=%zu window_s=%.3f recheck_pause_s=%.3f",
         upd.size(), qlat.size(), window_s, paused_s);
    note("update_ms: p10=%.3f p25=%.3f p50=%.3f p75=%.3f p90=%.3f p99=%.3f "
         "max=%.3f (whole run)",
         percentile(upd, 10), percentile(upd, 25), percentile(upd, 50),
         percentile(upd, 75), percentile(upd, 90), percentile(upd, 99),
         percentile(upd, 100));
    note("query_us: p50=%.1f p99=%.1f (whole run)", percentile(qlat, 50),
         percentile(qlat, 99));
    for (int k = 0; k <= static_cast<int>(Kind::kKnn); ++k) {
      std::vector<double> lat;
      for (const auto& c : clients_) {
        for (const auto& q : c.lat) {
          if (static_cast<int>(spec_.queries[q.i % spec_.queries.size()].kind) == k) {
            lat.push_back(q.us);
          }
        }
      }
      if (lat.empty()) continue;
      note("query_us by kind %d: n=%zu p25=%.1f p50=%.1f p75=%.1f p99=%.1f", k,
           lat.size(), percentile(lat, 25), percentile(lat, 50),
           percentile(lat, 75), percentile(lat, 99));
    }
    note("not bounded metrics: update_p50_ms = %.6g ms, query_p99_us = %.6g us "
         "(median of 1 s window p99s)",
         percentile(upd, 50), windowed_percentile(qlat_t, t0_, run_s, 99));
    note("VmHWM: %.1f MiB after the traffic (peak_rss_mb), %.1f MiB at the end",
         peak_rss_mb_, peak_rss_mb());
    const std::vector<Metric> e2e = {
        {"setup_s", setup_s_, "s"},
        {"update_p99_ms", windowed_percentile(upd_t, t0_, run_s, 99), "ms"},
        {"query_per_s", qps, "1/s"},
        {"query_p50_us", percentile(qlat, 50), "us"},
        {"result_pts_per_s", pts_per_s, "pts/s"},
        {"restart_s", restart_s_, "s"},
        {"peak_rss_mb", peak_rss_mb_, "MiB"},
    };
    for (const auto& m : e2e) {
      note("e2e %s = %.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (!opt_.trace) {
      save_untraced(spec_.name, opt_, e2e);
      return emit_result(e2e);
    }
    return emit_result(per_layer(e2e));
  }

  std::vector<Metric> per_layer(const std::vector<Metric>& e2e) {
    wd_.phase("core-replay");
    const double window_s = static_cast<double>(t_window_end_ - t0_) / 1e9;
    double upd_ops = 0;
    for (std::size_t i = 0; i < spec_.traffic_ticks; ++i) {
      upd_ops += static_cast<double>(spec_.ticks[i].dels.size() +
                                     spec_.ticks[i].ins.size());
    }
    std::size_t nq = 0, issued = 0;
    for (const auto& c : clients_) {
      nq += c.lat.size();
      for (const auto& q : c.lat) issued = std::max(issued, q.i + 1);
    }
    const double ops = std::max(1.0, upd_ops + static_cast<double>(nq));

    // Core replay of this run's ticks and issued queries.
    const std::size_t n_replay = std::min<std::size_t>(issued, 20000);
    const CoreTimes core = replay_core<typename Backend::Index>(
        spec_.base, spec_.ticks, spec_.traffic_ticks, spec_.queries, n_replay,
        Backend::kInsertsFirst);
    wd_.tick();

    LayerValues v;
    Backend::layer_values(v, stats_before_, stats_after_, final_stats_);
    if constexpr (Backend::kInProcess) {
      std::vector<double> self_us;
      for (const auto& c : clients_) {
        for (const auto& q : c.lat) {
          if (q.i < n_replay && !cached(q.i)) {
            self_us.push_back(q.us - core.query_us[q.i]);
          }
        }
      }
      v["service.query_self_us"] = median(self_us);
    }
    v["core.update_ns_per_pt"] = core.update_ns_per_pt;
    if (!core.knn_us.empty()) v["core.knn_us"] = median(core.knn_us);
    if (core.range_list_pts) {
      v["core.range_list_ns_per_pt"] =
          core.range_list_ns / static_cast<double>(core.range_list_pts);
    }
    if (!core.range_count_us.empty()) v["core.range_count_us"] = median(core.range_count_us);
    v["core.build_s"] = core.build_s;
    v["parallel.foreign_jobs_per_op"] = static_cast<double>(sched_delta_.foreign_jobs) / ops;
    v["parallel.steals_per_op"] = static_cast<double>(sched_delta_.steals) / ops;
    v["parallel.parks_per_s"] = static_cast<double>(sched_delta_.parks) / window_s;
    v["durability.checkpoint_s"] = checkpoint_s_;
    v["durability.tail_records"] = tail_records_;
    v["loadgen.lag_p99_ms"] = percentile(ticks_.lag_ms(), 99);
    v["loadgen.ops_attempted"] = static_cast<double>(ledger().attempted.load());

    wd_.phase("trace-report");
    report_tracing(spec_.name, opt_, e2e);
    return layer_metrics(v, spec_.name);
  }

  const Options& opt_;
  WorkloadSpec<Backend> spec_;
  Watchdog wd_;
  std::string dir_;
  std::unique_ptr<Backend> be_;
  bool knn_pts_ = false;
  std::atomic<bool> injected_{false};

  std::int64_t t0_ = 0, t_end_ = 0, t_window_end_ = 0;
  TickLog ticks_;
  std::vector<ClientLog> clients_;
  SchedDelta sched_;
  psi::SchedulerCounters sched_delta_{};
  typename Backend::Stats stats_before_, stats_after_, final_stats_;
  std::vector<P> oracle_;
  double setup_s_ = 0, restart_s_ = 0, checkpoint_s_ = 0, tail_records_ = 0;
  double peak_rss_mb_ = 0;
};

}  // namespace perfbench
