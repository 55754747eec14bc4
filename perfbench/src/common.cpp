#include "common.h"

#include <charconv>
#include <cstdarg>
#include <cstdlib>
#include <fstream>
#include <map>
#include <unordered_map>

namespace perfbench {

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

Ledger& ledger() {
  static Ledger l;
  return l;
}

void Ledger::mismatch(const std::string& what) {
  wrong.store(true, std::memory_order_relaxed);
  std::fprintf(stderr, "perfbench: oracle mismatch: %s\n", what.c_str());
}

void note(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("# ", stdout);
  std::vfprintf(stdout, fmt, ap);
  std::fputc('\n', stdout);
  va_end(ap);
  std::fflush(stdout);
}

namespace {

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, attempted));
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // Shortest representation that reads back as the same double.
    char buf[64];
    const auto end = std::to_chars(buf, buf + sizeof(buf), metrics[i].value).ptr;
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + std::string(buf, end) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace

int emit_result(const std::vector<Metric>& metrics) {
  Ledger& l = ledger();
  const std::uint64_t attempted = l.attempted.load();
  const std::uint64_t finished = l.finished.load();
  const std::uint64_t unfinished = attempted > finished ? attempted - finished : 0;
  const std::uint64_t failed = l.failed.load() + unfinished;
  const bool correct = !l.wrong.load() && failed == 0;
  note("ops attempted=%llu failed=%llu failed_ratio=%.6g",
       static_cast<unsigned long long>(attempted),
       static_cast<unsigned long long>(failed),
       attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0);
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {
thread_local std::uint64_t t_open_span = 0;
thread_local std::uint64_t t_open_request = 0;
}  // namespace

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

Tracer::Buffer* Tracer::local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(1 << 16);
    buf = owned.get();
    std::lock_guard<std::mutex> g(mu_);
    buffers_.push_back(std::move(owned));
  }
  return buf;
}

void Tracer::record(const SpanRec& r) {
  Buffer* b = local();
  // Appends race only with all()/summarize(), which run after the traffic
  // threads joined.
  b->spans.push_back(r);
}

std::vector<SpanRec> Tracer::all() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<SpanRec> out;
  for (std::size_t t = 0; t < buffers_.size(); ++t) {
    for (SpanRec r : buffers_[t]->spans) {
      r.thread = static_cast<std::uint32_t>(t);
      out.push_back(r);
    }
  }
  return out;
}

std::vector<double> Tracer::durations_ns(const char* name) const {
  std::vector<double> out;
  for (const auto& r : all()) {
    if (std::strcmp(r.name, name) == 0) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns));
    }
  }
  return out;
}

std::vector<Tracer::Summary> Tracer::summarize(bool by_layer) const {
  const auto spans = all();
  // Child coverage per parent: children of one parent run on the parent's
  // thread and nest, so their durations sum to the covered part.
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const auto& r : spans) {
    if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::map<std::string, Summary> acc;
  for (const auto& r : spans) {
    std::string key = r.name;
    if (by_layer) key = key.substr(0, key.find('.'));
    Summary& s = acc[key];
    s.name = key;
    const std::int64_t dur = r.end_ns - r.start_ns;
    const auto it = child_ns.find(r.id);
    const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
    s.count += 1;
    s.total_ms += ns_to_ms(dur);
    s.self_ms += ns_to_ms(std::max<std::int64_t>(0, dur - covered));
  }
  std::vector<Summary> out;
  for (auto& [k, v] : acc) out.push_back(v);
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\":[\n", f);
  const auto spans = all();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& r = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"thread\":%u}\n",
                 i ? "," : "", r.name, static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request), r.thread);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

Span::Span(const char* name, std::uint64_t request)
    : name_(name), on_(Tracer::instance().on()) {
  if (!on_) return;
  id_ = Tracer::instance().next_id();
  parent_ = t_open_span;
  prev_request_ = t_open_request;
  request_ = request != 0 ? request : t_open_request;
  t_open_span = id_;
  t_open_request = request_;
  start_ = now_ns();
}

Span::~Span() {
  if (!on_) return;
  const std::int64_t end = now_ns();
  Tracer::instance().record(
      SpanRec{name_, start_, end, id_, parent_, request_, 0});
  t_open_span = parent_;
  t_open_request = prev_request_;
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

Watchdog::Watchdog(std::string workload, double deadline_s, double stall_s)
    : workload_(std::move(workload)),
      deadline_s_(deadline_s),
      stall_s_(stall_s),
      t0_(now_ns()),
      thread_([this] { run(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::phase(const char* name) {
  phase_.store(name, std::memory_order_relaxed);
  tick();
  std::fprintf(stderr, "perfbench: %s: phase %s at %.2f s\n", workload_.c_str(),
               name, static_cast<double>(now_ns() - t0_) / 1e9);
}

void Watchdog::watch(const char* stream,
                     const std::atomic<std::uint64_t>* done) {
  std::lock_guard<std::mutex> g(mu_);
  streams_.push_back(Stream{stream, done, done->load(), now_ns()});
}

void Watchdog::unwatch() {
  std::lock_guard<std::mutex> g(mu_);
  streams_.clear();
}

void Watchdog::run() {
  const std::int64_t t0 = t0_;
  std::uint64_t last_progress = 0;
  std::int64_t last_change = t0;
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    cv_.wait_for(lk, std::chrono::milliseconds(100));
    if (stop_) break;
    const std::int64_t now = now_ns();
    const double run_s = static_cast<double>(now - t0) / 1e9;
    const std::uint64_t progress =
        ledger().finished.load(std::memory_order_relaxed) +
        beats_.load(std::memory_order_relaxed);
    if (progress != last_progress) {
      last_progress = progress;
      last_change = now;
    }
    const double idle_s = static_cast<double>(now - last_change) / 1e9;
    if (idle_s > stall_s_) fire("no-progress", "all", idle_s, run_s);
    for (auto& st : streams_) {
      const std::uint64_t v = st.done->load(std::memory_order_relaxed);
      if (v != st.last) {
        st.last = v;
        st.last_change = now;
      }
      const double st_idle = static_cast<double>(now - st.last_change) / 1e9;
      if (st_idle > stall_s_) fire("no-progress", st.name, st_idle, run_s);
    }
    if (run_s > deadline_s_) fire("deadline", "all", idle_s, run_s);
  }
}

void Watchdog::fire(const char* reason, const char* stream, double idle_s,
                    double run_s) {
  const char* phase = phase_.load(std::memory_order_relaxed);
  std::fprintf(stderr,
               "perfbench: WATCHDOG: workload %s phase %s stream %s: %s "
               "(idle %.1f s, run time %.1f s)\n",
               workload_.c_str(), phase, stream, reason, idle_s, run_s);
  note("watchdog fired: workload=%s phase=%s stream=%s reason=%s",
       workload_.c_str(), phase, stream, reason);
  ledger().wrong.store(true);
  emit_result({});
  std::fflush(nullptr);
  // Threads stuck in the stalled calls cannot be joined or unwound.
  std::_Exit(3);
}

}  // namespace perfbench
