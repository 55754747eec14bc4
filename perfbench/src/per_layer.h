// The per-layer metric catalogue of the traced run, and the traced run's
// reports: per-layer self time from the benchmark's spans, the span dump,
// and the tracing overhead against the last untraced run of the workload.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

using LayerValues = std::map<std::string, double>;

// Every per-layer metric of the catalogue (BENCHMARK.json "per_layer"), in
// its order. A metric the workload does not exercise is printed as 0 with a
// note saying so.
std::vector<Metric> layer_metrics(const LayerValues& v, const char* workload);

// Untraced runs save their end-to-end metrics; traced runs print their
// layer self times, write the span dump, and compare against that file.
void save_untraced(const char* workload, const Options& opt,
                   const std::vector<Metric>& e2e);
void report_tracing(const char* workload, const Options& opt,
                    const std::vector<Metric>& e2e);

}  // namespace perfbench
