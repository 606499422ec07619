// The `query` workload: a read-only embedded store over a larger
// population, read by closed-loop clients with Zipf point lookups
// (existing and absent names), range and top-k queries, all offline
// routed (the default Options::routing). Core's read path does all the
// work in the timed phase; persist and svc do none.
//
// After the timed phase: one untimed recall pass over the query pool,
// then a fixed write tail (new-file puts from every client, giving the
// put latencies and bytes written per put on a store of this size), a
// flush, a simulated crash and a timed reopen.
#include <unordered_map>

#include "embedded.h"

namespace perfbench {

namespace {

constexpr int kClients = 3;  // a core stays free for background work
// One round per client: 24 point lookups, one range and one top-k query.
// Point lookups are most of the ops, as stat-like lookups are in a file
// system's metadata traffic, and no kind takes most of the time (a traced
// run measured 37% point, 39% range and 25% top-k of the client time).
// The ratio is a choice, not measured from a trace: no trace here records
// metadata op kinds.
constexpr int kPointsPerRound = 24;
constexpr int kRangesPerRound = 1;
constexpr int kTopksPerRound = 1;

}  // namespace

RunResult run_query(const RunConfig& cfg) {
  RunResult r;
  InputSizes sizes;
  sizes.tif = cfg.tiny ? 1 : 2;
  sizes.downscale = cfg.tiny ? 20 : 1;
  sizes.inserts = cfg.tiny ? 400 : 48000;
  sizes.points = cfg.tiny ? 256 : 4096;
  sizes.ranges = cfg.tiny ? 24 : 4000;
  sizes.topks = cfg.tiny ? 24 : 4000;
  const Inputs in = make_inputs(cfg.seed, sizes);

  const std::string path = cfg.state_dir + "/store";
  reset_dir(cfg.state_dir);
  db::Options options;  // durable, sharded WAL, incremental checkpoints,
                        // offline routing
  options.group_commit = kGroupCommit;

  const double t_setup = now_s();
  std::unique_ptr<db::Store> store = open_store(options, path, &r);
  if (!store) return r;
  {
    Span s("db.Bulkload");
    if (!store->Bulkload(in.base).ok()) r.fail("bulkload failed");
  }
  r.end_to_end["setup_s"] = {now_s() - t_setup, "s"};
  if (!r.correct) return r;

  const Standardization st = Standardization::fit(in.base);
  const RecordIndex index = index_by_id(in.base);
  const Lookup known = lookup_in(index);
  const Answers answers =
      exhaustive_answers(in.base, st, in.ranges, in.topks);
  std::unordered_map<std::string, FileId> id_of;
  for (const auto& f : in.base) id_of[f.name] = f.id;
  auto expected_id = [&](const std::string& name) -> FileId {
    const auto it = id_of.find(name);
    return it == id_of.end() ? 0 : it->second;
  };

  // ---- timed phase -----------------------------------------------------
  std::vector<ClientLog> logs;
  const ProcCounters before = ProcCounters::read();
  run_closed_loop(
      kClients, cfg.seconds, &logs,
      [&](int c, std::uint64_t round, ClientLog& log) {
        // Clients walk the pools from different offsets.
        const std::size_t base = static_cast<std::size_t>(round) +
                                 static_cast<std::size_t>(c) * 7919;
        for (int i = 0; i < kPointsPerRound; ++i) {
          const std::string& name =
              in.point_names[(base * kPointsPerRound + i) %
                             in.point_names.size()];
          point_op(*store, name, expected_id(name), log);
        }
        for (int i = 0; i < kRangesPerRound; ++i) {
          const std::size_t q = (base * kRangesPerRound + i) % in.ranges.size();
          range_op(*store, in.ranges[q], known, log);
        }
        for (int i = 0; i < kTopksPerRound; ++i) {
          const std::size_t q = (base * kTopksPerRound + i) % in.topks.size();
          topk_op(*store, in.topks[q], st, known, answers.topks[q], log);
        }
      });
  const ProcCounters after = ProcCounters::read();
  const ClientLog reads = merge_logs(logs, &r);
  report_throughput(&r, reads);
  report_latency(&r, "point", reads.point, cfg.tiny);
  report_latency(&r, "range", reads.range, cfg.tiny);
  report_latency(&r, "topk", reads.topk, cfg.tiny);
  report_space(*store, &r);

  recall_pass(*store, in.ranges, in.topks, answers, st, known, &r);

  // ---- write tail ------------------------------------------------------
  const ProcCounters tail_before = ProcCounters::read();
  run_parallel(kClients, &logs, [&](int c, ClientLog& log) {
    for (std::size_t i = static_cast<std::size_t>(c); i < in.inserts.size();
         i += kClients)
      put_op(*store, in.inserts[i], log.put, log);
  });
  const ProcCounters tail_after = ProcCounters::read();
  const ClientLog tail = merge_logs(logs, &r);
  report_latency(&r, "put", tail.put, cfg.tiny);
  r.end_to_end["bytes_written_per_put"] = {
      static_cast<double>(tail_after.wchar - tail_before.wchar) /
          static_cast<double>(in.inserts.size()),
      "B"};
  r.per_layer["persist.write_calls_per_put"] = {
      static_cast<double>(tail_after.syscw - tail_before.syscw) /
          static_cast<double>(in.inserts.size()),
      "count"};

  std::vector<FileMetadata> expected = in.base;
  expected.insert(expected.end(), in.inserts.begin(), in.inserts.end());
  store = crash_and_recover(std::move(store), options, path, expected, &r);
  if (store) r.fail(store->Close().ok() ? "" : "close failed");

  r.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  finish_per_layer(cfg, reads, reads.ops, before, after, &r);
  return r;
}

}  // namespace perfbench
