// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <fleet-churn|scan-heavy|hotspot-loopback|hotspot-cluster>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Each workload drives the public API from this one process and prints
// "# ..." note lines (sample counts, input fingerprint, per-layer self
// times) followed by one JSON result line. Exit status is 0 only when every
// op succeeded and every oracle check passed. run.py builds this binary and
// sets the load shape (PSI_NUM_WORKERS=2).
//
// Test hooks: --tiny shrinks every size for a smoke run; --inject-wrong
// corrupts one checked answer so the oracle check must fail.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fleet-churn|scan-heavy|"
               "hotspot-loopback|hotspot-cluster> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>] [--tiny] [--inject-wrong]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value(), nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(value(), "0") != 0;
    } else if (a == "--work-dir") {
      opt.work_dir = value();
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--inject-wrong") {
      opt.inject_wrong = true;
    } else {
      usage();
      return 2;
    }
  }
  if (opt.seconds <= 0) {
    usage();
    return 2;
  }
  if (opt.trace) perfbench::Tracer::instance().enable();
  if (opt.workload == "fleet-churn") return perfbench::run_fleet_churn(opt);
  if (opt.workload == "scan-heavy") return perfbench::run_scan_heavy(opt);
  if (opt.workload == "hotspot-loopback") {
    return perfbench::run_hotspot_loopback(opt);
  }
  if (opt.workload == "hotspot-cluster") {
    return perfbench::run_hotspot_cluster(opt);
  }
  usage();
  return 2;
}
