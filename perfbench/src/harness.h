// What every workload shares: the run configuration, the result it hands
// back, latency samples, process counters, and the generated inputs.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "tracer.h"
#include "metadata/query.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small populations and streams, set only by the self-test so that
  /// it takes every workload to its end in seconds.
  bool tiny = false;
  /// Scratch directory for store state and span dumps (created, and
  /// emptied first, by the workload).
  std::string state_dir;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::string first_error;  ///< why correct is false
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  /// Records a failed check (keeps the first reason).
  void fail(const std::string& why) {
    if (why.empty()) return;
    if (correct) first_error = why;
    correct = false;
  }
};

/// WAL group commit of every store in a timed phase: one write in 64 per
/// WAL shard waits on fsync. Under the adaptive default (0) the stores
/// settled on a batch of 1 to 2, so nearly every put waited on an fsync
/// of the shared disk, and put p50 spread by 0.5 to 1.0 of its median
/// between seeds. The traced ingest run measures the default apart.
inline constexpr std::size_t kGroupCommit = 64;

RunResult run_ingest(const RunConfig& cfg);
RunResult run_query(const RunConfig& cfg);
RunResult run_service(const RunConfig& cfg);

// ---- timing ------------------------------------------------------------------

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Client-side latency samples of one op kind, in microseconds, each
/// with its completion time.
class Latencies {
 public:
  struct Sample {
    double done_s;
    float us;
  };
  void add(double us) { samples_.push_back({now_s(), static_cast<float>(us)}); }
  void merge(const Latencies& o) {
    samples_.insert(samples_.end(), o.samples_.begin(), o.samples_.end());
  }
  std::size_t size() const { return samples_.size(); }
  const std::vector<Sample>& samples() const { return samples_; }
  /// The median over runs of samples in completion order of each run's
  /// p-th percentile: up to kChunks runs of at least `min_per_chunk`
  /// samples each. A burst of interference on the shared machine then
  /// moves one run, not the figure. 0 when there are too few samples.
  double chunked_percentile(double p, std::size_t min_per_chunk) const;

  static constexpr int kChunks = 10;

 private:
  std::vector<Sample> samples_;
};

/// Sets the end-to-end `<prefix>_p50_us` and the per-layer
/// `tail.<prefix>_p99_us`, both chunked; each run of samples behind a p99
/// holds at least 1000, so that ten lie beyond it (0 with fewer samples).
/// Fails the run when there are no samples, except in tiny mode.
void report_latency(RunResult* r, const std::string& prefix,
                    const Latencies& l, bool tiny);

struct ClientLog;
/// Sets ops_per_s: the ops completed per second in the timed phase's
/// 0.1 s-wide windows (1/100 of a 10 s phase), the 90th percentile over
/// the windows. This machine's other tenants stall the clients for
/// seconds at a time (a window then completes as few as 1/60 of the ops
/// of its neighbours), and such stalls only ever remove ops; the
/// per-op cost shows in the p50s.
void report_throughput(RunResult* r, const ClientLog& all);

// ---- process counters ------------------------------------------------------

struct ProcCounters {
  std::uint64_t wchar = 0;   ///< /proc/self/io: bytes passed to write calls
  std::uint64_t syscw = 0;   ///< /proc/self/io: write calls
  double cpu_s = 0;          ///< user + system, all threads
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary

  static ProcCounters read();
};

double peak_rss_mb();

// ---- generated inputs ------------------------------------------------------

/// The trace-shaped population and query points a workload runs on. All
/// of it is derived from the seed; the program sees only these records.
struct Inputs {
  std::vector<FileMetadata> base;     ///< the bulkloaded population
  std::vector<FileMetadata> inserts;  ///< new-file puts (fresh names, ids)
  std::vector<std::string> point_names;  ///< Zipf lookups, some absent
  std::vector<RangeQuery> ranges;
  std::vector<TopKQuery> topks;
};

struct InputSizes {
  unsigned tif = 1;
  unsigned downscale = 1;
  std::size_t inserts = 0;
  std::size_t points = 0;
  std::size_t ranges = 0;
  std::size_t topks = 0;
  double point_exist_prob = 0.8;
};

Inputs make_inputs(std::uint64_t seed, const InputSizes& sizes);

/// The n-th new file client `c` of `clients` puts. Client c owns the
/// insert-pool slots c, c + clients, ...; once it has used them all, a
/// slot comes back with the same attributes under a new name (same
/// directory, so the same partition key) and a new id, so a long run can
/// put more new files than the pool holds and no two clients share a name.
FileMetadata nth_insert(const std::vector<FileMetadata>& pool, int c,
                        int clients, std::size_t n);

/// Empties and recreates a directory.
void reset_dir(const std::string& dir);

// ---- clients ---------------------------------------------------------------

/// What one client thread measured and checked.
struct ClientLog {
  Latencies put, upsert, del, point, range, topk;
  std::uint64_t ops = 0;
  std::string error;  ///< first failed check or failed call
  // QueryStats sums, for the per-layer core/sim metrics.
  double point_groups = 0, range_groups = 0, topk_groups = 0;
  double point_msgs = 0, range_msgs = 0, topk_msgs = 0;
  double range_results = 0;
  std::uint64_t point_found = 0, point_first_try = 0;

  void fail(const std::string& why) {
    if (error.empty()) error = why;
  }
  void merge(const ClientLog& o);
};

/// Runs fn(c) on `n` threads and joins them; an exception in a client
/// becomes that client's error.
void run_parallel(int n, std::vector<ClientLog>* logs,
                  const std::function<void(int, ClientLog&)>& fn);

/// Closed loop: each of `n` clients runs whole rounds (`round(c, r, log)`)
/// until `seconds` have passed, checking the clock only between rounds.
void run_closed_loop(
    int n, double seconds, std::vector<ClientLog>* logs,
    const std::function<void(int, std::uint64_t, ClientLog&)>& round);

/// Folds client logs into one, adding their ops to `r->attempted` and
/// their first error (if any) to `r`.
ClientLog merge_logs(const std::vector<ClientLog>& logs, RunResult* r);

// ---- per-layer metrics -----------------------------------------------------

/// Every per-layer metric name with its unit. Each traced run reports all
/// of them; a layer a workload does not reach reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_names();

/// Sets every per-layer metric to 0, then those every workload derives
/// the same way: the core/sim means from the queries in `all`, process
/// CPU and context switches per op over the timed phase, and (traced
/// runs) the client and db::Store self times per op. Writes the spans of
/// the first 20000 client ops (and those outside any op) to
/// <state_dir>/spans.csv, and returns every span for the workload's own
/// per-layer metrics (empty when untraced).
std::vector<SpanRecord> finish_per_layer(const RunConfig& cfg, const ClientLog& all,
                      std::uint64_t timed_ops, const ProcCounters& before,
                      const ProcCounters& after, RunResult* r);

}  // namespace perfbench
