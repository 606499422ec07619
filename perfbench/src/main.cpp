// perfbench: runs one named workload against SmartStore and prints one
// JSON line as the last line of standard output:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, from spans recorded around the calls into each layer.
//
// Usage: perfbench --workload ingest|query|service --seed N --seconds S
//                  --trace 0|1 --state-dir DIR
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

const char* const kEndToEnd[] = {
    "setup_s",      "ops_per_s",    "put_p50_us",   "point_p50_us",
    "range_p50_us", "topk_p50_us",  "range_recall", "topk_recall",
    "bytes_written_per_put",        "peak_rss_mb",
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|query|service --seed N "
               "--seconds S --trace 0|1 --state-dir DIR\n");
  return 2;
}

void print_metrics(const std::map<std::string, perfbench::Metric>& m) {
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (a == "--trace" && has_value) {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--state-dir" && has_value) {
      cfg.state_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || cfg.seconds <= 0 ||
      cfg.state_dir.empty())
    return usage();

  perfbench::Tracer::enable(cfg.trace);
  perfbench::RunResult r;
  if (cfg.workload == "ingest")
    r = perfbench::run_ingest(cfg);
  else if (cfg.workload == "query")
    r = perfbench::run_query(cfg);
  else if (cfg.workload == "service")
    r = perfbench::run_service(cfg);
  else
    return usage();

  if (cfg.trace && r.end_to_end.count("ops_per_s") != 0)
    r.per_layer["trace.ops_per_s"] = r.end_to_end["ops_per_s"];
  if (!cfg.trace)
    for (const char* name : kEndToEnd)
      if (r.end_to_end.count(name) == 0)
        r.fail(std::string("metric ") + name + " was not measured");
  if (!r.correct)
    std::fprintf(stderr, "perfbench: %s: check failed: %s\n",
                 cfg.workload.c_str(), r.first_error.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_metrics(cfg.trace ? r.per_layer : r.end_to_end);
  std::printf("}}\n");
  return 0;
}
