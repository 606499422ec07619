#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "trace/profiles.h"
#include "trace/synth.h"
#include "trace/query_gen.h"

namespace perfbench {

using smartstore::metadata::Attr;
using smartstore::metadata::AttrSubset;

namespace {

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  return v[mid];
}

double percentile_of(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const std::size_t rank = std::min(
      v.size() - 1,
      static_cast<std::size_t>(
          std::ceil(p / 100.0 * static_cast<double>(v.size())) - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank), v.end());
  return v[rank];
}

}  // namespace

double Latencies::chunked_percentile(double p,
                                     std::size_t min_per_chunk) const {
  const std::size_t chunks =
      std::min<std::size_t>(kChunks, samples_.size() / min_per_chunk);
  if (chunks == 0) return 0;
  std::vector<Sample> v = samples_;
  std::sort(v.begin(), v.end(), [](const Sample& a, const Sample& b) {
    return a.done_s < b.done_s;
  });
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<double> us;
    for (std::size_t i = v.size() * c / chunks; i < v.size() * (c + 1) / chunks;
         ++i)
      us.push_back(v[i].us);
    per_chunk.push_back(percentile_of(std::move(us), p));
  }
  return median_of(std::move(per_chunk));
}

void report_latency(RunResult* r, const std::string& prefix,
                    const Latencies& l, bool tiny) {
  if (l.size() == 0) {
    if (!tiny) r->fail("no " + prefix + " samples");
    return;
  }
  r->end_to_end[prefix + "_p50_us"] = {l.chunked_percentile(50, 1), "us"};
  r->per_layer["tail." + prefix + "_p99_us"] = {
      l.chunked_percentile(99, 1000), "us"};
}

void report_throughput(RunResult* r, const ClientLog& all) {
  std::vector<double> done;
  for (const Latencies* l :
       {&all.put, &all.upsert, &all.del, &all.point, &all.range, &all.topk})
    for (const auto& s : l->samples()) done.push_back(s.done_s);
  if (done.size() < 2) return r->fail("too few ops to measure throughput");
  constexpr std::size_t kWindows = 100;
  const auto [lo, hi] = std::minmax_element(done.begin(), done.end());
  const double width = (*hi - *lo) / kWindows;
  std::vector<double> counts(kWindows, 0.0);
  for (double t : done) {
    const auto w = std::min<std::size_t>(
        kWindows - 1, static_cast<std::size_t>((t - *lo) / width));
    counts[w] += 1;
  }
  std::sort(counts.begin(), counts.end());
  r->end_to_end["ops_per_s"] = {counts[kWindows * 9 / 10] / width, "ops/s"};
}

ProcCounters ProcCounters::read() {
  ProcCounters c;
  if (std::FILE* f = std::fopen("/proc/self/io", "r")) {
    char key[64];
    unsigned long long v = 0;
    while (std::fscanf(f, "%63[^:]: %llu\n", key, &v) == 2) {
      if (std::strcmp(key, "wchar") == 0) c.wchar = v;
      if (std::strcmp(key, "syscw") == 0) c.syscw = v;
    }
    std::fclose(f);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  c.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  c.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return c;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Inputs make_inputs(std::uint64_t seed, const InputSizes& sizes) {
  namespace tr = smartstore::trace;
  // The bulkloaded base comes from one fixed trace seed; the run seed
  // draws everything else (lookups, query points, the insert stream, and
  // with them each client's op sequence). With a base drawn per seed, the
  // random cluster layout alone moved recall by up to 0.18 and range
  // latency by up to 40% between seeds, hiding any regression the bounds
  // are meant to catch.
  constexpr std::uint64_t kBaseSeed = 2009;
  const tr::SyntheticTrace trace = tr::SyntheticTrace::generate(
      tr::hp_profile(), sizes.tif, kBaseSeed, sizes.downscale);
  Inputs in;
  in.base = trace.files();
  in.inserts = trace.make_insert_stream(sizes.inserts, seed ^ 0x5eedull);

  // Point lookups draw names under Zipf popularity. Range and top-k
  // points are drawn around files picked uniformly (the Gauss generator):
  // under Zipf about a tenth of them would sit next to the one hottest
  // file, so a run's range/top-k cost and recall would hang on a handful
  // of seed-chosen anchors. They filter on the subsets a metadata search
  // uses: size and times, and the behavioural read/write volumes.
  tr::QueryGenerator gen(trace, tr::QueryDistribution::kZipf,
                         seed * 31 + 7);
  tr::QueryGenerator box_gen(trace, tr::QueryDistribution::kGauss,
                             seed * 37 + 11);
  const std::vector<AttrSubset> range_dims = {
      AttrSubset({Attr::kFileSize, Attr::kModificationTime}),
      AttrSubset({Attr::kReadBytes, Attr::kWriteBytes, Attr::kAccessTime}),
      AttrSubset({Attr::kCreationTime, Attr::kOwnerId}),
  };
  const std::vector<AttrSubset> topk_dims = {
      AttrSubset({Attr::kFileSize, Attr::kAccessTime, Attr::kReadCount}),
      AttrSubset::all(),
  };
  for (std::size_t i = 0; i < sizes.points; ++i)
    in.point_names.push_back(gen.gen_point(sizes.point_exist_prob).filename);
  for (std::size_t i = 0; i < sizes.ranges; ++i)
    in.ranges.push_back(box_gen.gen_range(range_dims[i % range_dims.size()]));
  for (std::size_t i = 0; i < sizes.topks; ++i)
    in.topks.push_back(box_gen.gen_topk(topk_dims[i % topk_dims.size()], 8));
  return in;
}

FileMetadata nth_insert(const std::vector<FileMetadata>& pool, int c,
                        int clients, std::size_t n) {
  const std::size_t stride = static_cast<std::size_t>(clients);
  const std::size_t per_client = pool.size() / stride;
  const std::size_t slot = static_cast<std::size_t>(c) + stride * (n % per_client);
  const std::uint64_t gen = n / per_client;
  FileMetadata g = pool[slot];
  if (gen == 0) return g;
  g.id += gen * pool.size();
  const std::size_t dot = g.name.rfind('.');
  const std::string suffix = ".g" + std::to_string(gen);
  if (dot == std::string::npos || dot < g.name.rfind('/'))
    g.name += suffix;
  else
    g.name.insert(dot, suffix);
  return g;
}

void reset_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}


void ClientLog::merge(const ClientLog& o) {
  put.merge(o.put);
  upsert.merge(o.upsert);
  del.merge(o.del);
  point.merge(o.point);
  range.merge(o.range);
  topk.merge(o.topk);
  ops += o.ops;
  if (error.empty()) error = o.error;
  point_groups += o.point_groups;
  range_groups += o.range_groups;
  topk_groups += o.topk_groups;
  point_msgs += o.point_msgs;
  range_msgs += o.range_msgs;
  topk_msgs += o.topk_msgs;
  range_results += o.range_results;
  point_found += o.point_found;
  point_first_try += o.point_first_try;
}

void run_parallel(int n, std::vector<ClientLog>* logs,
                  const std::function<void(int, ClientLog&)>& fn) {
  logs->assign(static_cast<std::size_t>(n), ClientLog{});
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = (*logs)[static_cast<std::size_t>(c)];
      try {
        fn(c, log);
      } catch (const std::exception& e) {
        log.fail(std::string("client threw: ") + e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
}

void run_closed_loop(
    int n, double seconds, std::vector<ClientLog>* logs,
    const std::function<void(int, std::uint64_t, ClientLog&)>& round) {
  const double end = now_s() + seconds;
  run_parallel(n, logs, [&](int c, ClientLog& log) {
    for (std::uint64_t r = 0; now_s() < end && log.error.empty(); ++r)
      round(c, r, log);
  });
}

ClientLog merge_logs(const std::vector<ClientLog>& logs, RunResult* r) {
  ClientLog all;
  for (const auto& l : logs) all.merge(l);
  r->attempted += all.ops;
  r->fail(all.error);
  return all;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"persist.cut_s", "s"},
      {"persist.fold_s", "s"},
      {"persist.freeze_s", "s"},
      {"persist.fold_cow_copies", "count"},
      {"persist.puts_per_s_in_fold", "ops/s"},
      {"persist.puts_per_s_no_fold", "ops/s"},
      {"persist.group_commit_batch", "count"},
      {"persist.adaptive_put_p50_us", "us"},
      {"persist.write_calls_per_put", "count"},
      {"persist.cut_bytes", "B"},
      {"persist.cut_units", "count"},
      {"persist.fold_bytes", "B"},
      {"persist.recover_s", "s"},
      {"persist.recover_wal_records", "count"},
      {"persist.recover_delta_records", "count"},
      {"core.point_groups_visited", "count"},
      {"core.range_groups_visited", "count"},
      {"core.topk_groups_visited", "count"},
      {"core.point_first_try", "ratio"},
      {"core.range_results", "count"},
      {"core.space_bytes_per_unit", "B"},
      {"sim.point_messages", "count"},
      {"sim.range_messages", "count"},
      {"sim.topk_messages", "count"},
      {"svc.router_self_us", "us"},
      {"rpc.transport_us", "us"},
      {"svc.handle_put_us", "us"},
      {"svc.handle_delete_us", "us"},
      {"svc.handle_point_us", "us"},
      {"svc.handle_range_us", "us"},
      {"svc.handle_topk_us", "us"},
      {"rpc.calls_per_put", "count"},
      {"rpc.calls_per_point", "count"},
      {"rpc.calls_per_range", "count"},
      {"rpc.calls_per_topk", "count"},
      {"rpc.bytes_per_put", "B"},
      {"rpc.bytes_per_point", "B"},
      {"rpc.bytes_per_range", "B"},
      {"rpc.bytes_per_topk", "B"},
      {"svc.scatter_slowest_shard_us", "us"},
      {"svc.acked_point_misses", "count"},
      {"svc.redirects", "count"},
      {"svc.retries", "count"},
      {"svc.unpinned_scatters", "count"},
      {"proc.cpu_s_per_op", "s"},
      {"proc.ctx_switches_per_op", "count"},
      {"layer.client_self_us", "us"},
      {"layer.db_self_us", "us"},
      {"tail.put_p99_us", "us"},
      {"tail.point_p99_us", "us"},
      {"tail.range_p99_us", "us"},
      {"tail.topk_p99_us", "us"},
      {"trace.spans", "count"},
      {"trace.ops_per_s", "ops/s"},
  };
  return names;
}

std::vector<SpanRecord> finish_per_layer(const RunConfig& cfg,
                                         const ClientLog& all,
                                         std::uint64_t timed_ops,
                                         const ProcCounters& before,
                                         const ProcCounters& after,
                                         RunResult* r) {
  for (const auto& [name, unit] : per_layer_names())
    if (r->per_layer.count(name) == 0) r->per_layer[name] = {0.0, unit};
  auto set = [&](const std::string& name, double v) {
    r->per_layer[name].value = v;
  };
  auto mean = [](double sum, std::size_t n) {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  set("core.point_groups_visited", mean(all.point_groups, all.point.size()));
  set("core.range_groups_visited", mean(all.range_groups, all.range.size()));
  set("core.topk_groups_visited", mean(all.topk_groups, all.topk.size()));
  set("core.range_results", mean(all.range_results, all.range.size()));
  set("core.point_first_try",
      mean(static_cast<double>(all.point_first_try), all.point_found));
  set("sim.point_messages", mean(all.point_msgs, all.point.size()));
  set("sim.range_messages", mean(all.range_msgs, all.range.size()));
  set("sim.topk_messages", mean(all.topk_msgs, all.topk.size()));
  set("proc.cpu_s_per_op", mean(after.cpu_s - before.cpu_s, timed_ops));
  set("proc.ctx_switches_per_op",
      mean(static_cast<double>(after.ctx_switches - before.ctx_switches),
           timed_ops));
  if (!cfg.trace) return {};

  std::vector<SpanRecord> spans = Tracer::collect();
  // The dump keeps the spans outside client ops and those of the first
  // kDumpOps ops: enough to read any op's path, without a 100 MB file.
  constexpr std::uint64_t kDumpOps = 20000;
  std::vector<SpanRecord> dumped;
  for (const auto& s : spans)
    if (s.op <= kDumpOps) dumped.push_back(s);
  if (!Tracer::dump(dumped, cfg.state_dir + "/spans.csv"))
    r->fail("cannot write the span dump");
  set("trace.spans", static_cast<double>(spans.size()));
  double client_self = 0, db_self = 0;
  std::uint64_t ops = 0;
  for (const auto& [name, t] : Tracer::totals(spans)) {
    if (name.rfind("op.", 0) == 0) {
      client_self += t.self_us;
      ops += t.count;
    }
    if (name.rfind("db.", 0) == 0) db_self += t.self_us;
  }
  set("layer.client_self_us", mean(client_self, ops));
  set("layer.db_self_us", mean(db_self, ops));
  return spans;
}

}  // namespace perfbench
