// The `ingest` workload: a durable db::Store (sharded WAL, incremental
// checkpoints, group commit kGroupCommit) over a bulkloaded base, written
// by closed-loop clients issuing new-file puts, attribute-update upserts
// and deletes. Each name is written by one
// client only, so every name's final state is known to the benchmark.
//
// A checkpoint driver cuts a delta every kCutEvery client ops and, at
// every fourth such point, folds the chain instead, concurrently with the
// writers: every run does the same background work per op. The run ends
// with a flush, a simulated crash (Abandon) and a timed reopen whose
// contents must equal base ∪ puts/upserts ∖ deletes, attributes included.
// Read latency and offline recall come from a fixed probe of point,
// range and top-k reads on the bulkloaded store, before the writers start.
// A traced run ends with closed-loop puts on a second, fresh store at the
// default Options, so that the adaptive group commit is measured too.
#include <algorithm>
#include <atomic>
#include <deque>
#include <thread>
#include <unordered_map>

#include "embedded.h"

namespace perfbench {

namespace {

using smartstore::metadata::Attr;

constexpr int kClients = 3;  // a core stays free for background work
// One round per client: P = new-file put, U = upsert, D = delete of the
// client's oldest live new file. As many deletes as puts, and never more
// so far in the round: the store's size, and with it the cost of every
// cut, fold and reopen, stays the same however long the run.
constexpr char kRound[] = "PPUDPUDPUDPUDPUDPUDD";
constexpr std::size_t kRoundOps = sizeof(kRound) - 1;
// Cuts (and every fourth point a fold) per this many client ops.
constexpr std::uint64_t kCutEvery = 2500;
constexpr std::uint64_t kCutEveryTiny = 400;
constexpr std::uint64_t kFoldEvery = 4;

// New-file puts per client on the adaptive group-commit store.
constexpr std::size_t kAdaptivePuts = 2000;
constexpr std::size_t kAdaptivePutsTiny = 20;

/// The attribute update an upsert applies: one more read of 4 KiB, an
/// hour later.
FileMetadata touched(const FileMetadata& f) {
  FileMetadata g = f;
  g.set_attr(Attr::kReadCount, g.attr(Attr::kReadCount) + 1);
  g.set_attr(Attr::kReadBytes, g.attr(Attr::kReadBytes) + 4096);
  g.set_attr(Attr::kAccessTime, g.attr(Attr::kAccessTime) + 3600);
  return g;
}

/// One client's writes: the current record of every name it touched.
struct ClientModel {
  std::unordered_map<std::string, FileMetadata> live;
  std::deque<std::string> new_names;  ///< live new files, oldest first
  std::vector<std::string> deleted;
  std::size_t next_insert = 0;        ///< how many new files it has put
  std::size_t next_base = 0;          ///< upsert cursor over its base slice
};

/// Background-work accounting of the checkpoint driver.
struct DriverLog {
  std::uint64_t cuts = 0, folds = 0;
  double cut_s = 0, fold_s = 0;
  double cut_bytes = 0, cut_units = 0, fold_bytes = 0;
  std::string error;
};

/// Closed-loop new-file puts on a fresh store at the default Options,
/// whose WAL sizes each shard's group commit adaptively (the timed phase
/// uses the static kGroupCommit). Sets the per-layer
/// persist.group_commit_batch, the batch the store settled on, and
/// persist.adaptive_put_p50_us, and checks that the store then holds
/// exactly the base and the puts.
void adaptive_commit_probe(const RunConfig& cfg, const Inputs& in,
                           RunResult* r) {
  std::unique_ptr<db::Store> store =
      open_store(db::Options{}, cfg.state_dir + "/adaptive", r);
  if (!store) return;
  if (!store->Bulkload(in.base).ok())
    return r->fail("adaptive probe: bulkload failed");
  const std::size_t per_client = cfg.tiny ? kAdaptivePutsTiny : kAdaptivePuts;
  std::vector<ClientLog> logs;
  run_parallel(kClients, &logs, [&](int c, ClientLog& log) {
    for (std::size_t i = 0; i < per_client && log.error.empty(); ++i)
      put_op(*store, nth_insert(in.inserts, c, kClients, i), log.put, log);
  });
  const ClientLog all = merge_logs(logs, r);
  r->per_layer["persist.adaptive_put_p50_us"].value =
      all.put.chunked_percentile(50, 1);
  std::string v;
  if (store->GetProperty("smartstore.wal.group-commit.effective", &v))
    r->per_layer["persist.group_commit_batch"].value = std::stod(v);

  std::vector<FileMetadata> expected = in.base;
  for (int c = 0; c < kClients; ++c)
    for (std::size_t i = 0; i < per_client; ++i)
      expected.push_back(nth_insert(in.inserts, c, kClients, i));
  std::uint64_t seq = 0;
  auto dump = store->DumpSnapshot(&seq);
  if (!dump.ok())
    return r->fail("adaptive probe: dump: " + dump.status().ToString());
  r->fail(check_dump(*dump, expected));
  r->fail(store->Close().ok() ? "" : "adaptive probe: close failed");
}

}  // namespace

RunResult run_ingest(const RunConfig& cfg) {
  RunResult r;
  InputSizes sizes;
  sizes.tif = 1;
  sizes.downscale = cfg.tiny ? 20 : 1;
  sizes.inserts = cfg.tiny ? 400 : 80000;
  sizes.points = cfg.tiny ? 256 : 4096;
  sizes.ranges = cfg.tiny ? 16 : 2000;
  sizes.topks = cfg.tiny ? 16 : 2000;
  const Inputs in = make_inputs(cfg.seed, sizes);
  const std::uint64_t cut_every = cfg.tiny ? kCutEveryTiny : kCutEvery;
  const std::size_t probe_per_kind = cfg.tiny ? 50 : 2000;
  const std::size_t tail_block = cfg.tiny ? 50 : 2500;

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

  // ---- read probe on the bulkloaded store ------------------------------
  // A fixed number of reads before the writers start: after ingest, read
  // cost grows with the replica versions the run left behind, which would
  // tie the read metrics to this run's write throughput.
  const Standardization st = Standardization::fit(in.base);
  const RecordIndex index = index_by_id(in.base);
  const Lookup known = lookup_in(index);
  const Answers answers = exhaustive_answers(in.base, st, in.ranges, in.topks);
  std::unordered_map<std::string, FileId> base_id;
  for (const auto& f : in.base) base_id[f.name] = f.id;
  auto expected_id = [&](const std::string& name) -> FileId {
    const auto it = base_id.find(name);
    return it == base_id.end() ? 0 : it->second;
  };
  std::vector<ClientLog> logs;
  run_parallel(kClients, &logs, [&](int c, ClientLog& log) {
    for (std::size_t i = 0; i < probe_per_kind && log.error.empty(); ++i) {
      const std::size_t n = i * kClients + static_cast<std::size_t>(c);
      const std::string& name = in.point_names[n % in.point_names.size()];
      point_op(*store, name, expected_id(name), log);
      const std::size_t rq = n % in.ranges.size();
      range_op(*store, in.ranges[rq], known, log);
      const std::size_t tq = n % in.topks.size();
      topk_op(*store, in.topks[tq], st, known, answers.topks[tq], log);
    }
  });
  const ClientLog probe = merge_logs(logs, &r);
  report_latency(&r, "point", probe.point, cfg.tiny);
  report_latency(&r, "range", probe.range, cfg.tiny);
  report_latency(&r, "topk", probe.topk, cfg.tiny);
  recall_pass(*store, in.ranges, in.topks, answers, st, known, &r);

  std::vector<ClientModel> models(kClients);
  std::atomic<std::uint64_t> ops_done{0};
  std::atomic<bool> clients_done{false};

  // ---- checkpoint driver -----------------------------------------------
  DriverLog driver;
  std::thread driver_thread([&] {
    std::uint64_t point = 1;
    for (;;) {
      if (ops_done.load() < point * cut_every) {
        if (clients_done.load()) return;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      const bool fold = point % kFoldEvery == 0;
      const db::CheckpointInfo pre = store->GetCheckpointInfo();
      const double t0 = now_s();
      db::Status s;
      if (fold) {
        Span sp("db.Compact");
        s = store->Compact();
      } else {
        Span sp("db.Checkpoint");
        s = store->Checkpoint();
      }
      const double dt = now_s() - t0;
      if (!s.ok()) {
        driver.error = (fold ? "fold: " : "cut: ") + s.ToString();
        return;
      }
      const db::CheckpointInfo post = store->GetCheckpointInfo();
      if (fold) {
        ++driver.folds;
        driver.fold_s += dt;
        driver.fold_bytes += static_cast<double>(post.last_snapshot_bytes);
      } else {
        ++driver.cuts;
        driver.cut_s += dt;
        driver.cut_bytes += static_cast<double>(post.delta_chain_bytes) -
                            static_cast<double>(pre.delta_chain_bytes);
        driver.cut_units += static_cast<double>(post.last_delta_units);
      }
      ++point;
    }
  });

  auto put_new = [&](int c, ClientModel& m, ClientLog& log) {
    const FileMetadata f = nth_insert(in.inserts, c, kClients, m.next_insert++);
    put_op(*store, f, log.put, log);
    m.live[f.name] = f;
    m.new_names.push_back(f.name);
  };

  // ---- timed phase -----------------------------------------------------
  const ProcCounters before = ProcCounters::read();
  const std::int64_t timed_start_ns = Tracer::now_ns();
  run_closed_loop(
      kClients, cfg.seconds, &logs,
      [&](int c, std::uint64_t, ClientLog& log) {
        ClientModel& m = models[static_cast<std::size_t>(c)];
        for (std::size_t i = 0; i < kRoundOps && log.error.empty(); ++i) {
          const char kind = kRound[i];
          if (kind == 'P') {
            put_new(c, m, log);
          } else if (kind == 'U') {
            // Alternate between the client's base slice and its newest
            // live file.
            const FileMetadata* cur = nullptr;
            if ((m.next_base + m.next_insert) % 2 == 0 || m.new_names.empty()) {
              const std::size_t b =
                  static_cast<std::size_t>(c) +
                  kClients * (m.next_base++ % (in.base.size() / kClients));
              const auto it = m.live.find(in.base[b].name);
              cur = it != m.live.end() ? &it->second : &in.base[b];
            } else {
              cur = &m.live.at(m.new_names.back());
            }
            const FileMetadata g = touched(*cur);
            Tracer::set_op(Tracer::next_op());
            Span op("op.upsert");
            db::WriteBatch batch;
            batch.Delete(g.name);
            batch.Put(g);
            const double t0 = now_s();
            db::Status s;
            {
              Span sp("db.Write");
              s = store->Write(std::move(batch));
            }
            log.upsert.add((now_s() - t0) * 1e6);
            ++log.ops;
            if (!s.ok()) log.fail("upsert " + g.name + ": " + s.ToString());
            m.live[g.name] = g;
          } else {
            const std::string name = m.new_names.front();
            m.new_names.pop_front();
            Tracer::set_op(Tracer::next_op());
            Span op("op.delete");
            const double t0 = now_s();
            db::Status s;
            {
              Span sp("db.Delete");
              s = store->Delete(name);
            }
            log.del.add((now_s() - t0) * 1e6);
            ++log.ops;
            if (!s.ok()) log.fail("delete " + name + ": " + s.ToString());
            m.live.erase(name);
            m.deleted.push_back(name);
          }
          ops_done.fetch_add(1);
        }
      });
  // The timed phase ends with the last client; the driver may still be
  // finishing a cut or fold it had started.
  const std::int64_t timed_end_ns = Tracer::now_ns();
  clients_done.store(true);
  driver_thread.join();
  const ProcCounters after = ProcCounters::read();
  r.fail(driver.error);

  const ClientLog writes = merge_logs(logs, &r);
  report_throughput(&r, writes);
  report_latency(&r, "put", writes.put, cfg.tiny);
  const std::size_t puts = writes.put.size() + writes.upsert.size();
  r.end_to_end["bytes_written_per_put"] = {
      static_cast<double>(after.wchar - before.wchar) /
          static_cast<double>(std::max<std::size_t>(1, puts)),
      "B"};
  r.per_layer["persist.write_calls_per_put"] = {
      static_cast<double>(after.syscw - before.syscw) /
          static_cast<double>(std::max<std::size_t>(1, puts)),
      "count"};
  {
    const db::CheckpointInfo info = store->GetCheckpointInfo();
    auto mean = [](double sum, std::uint64_t n) {
      return n == 0 ? 0.0 : sum / static_cast<double>(n);
    };
    r.per_layer["persist.cut_s"] = {mean(driver.cut_s, driver.cuts), "s"};
    r.per_layer["persist.fold_s"] = {mean(driver.fold_s, driver.folds), "s"};
    r.per_layer["persist.freeze_s"] = {info.last_freeze_s, "s"};
    r.per_layer["persist.fold_cow_copies"] = {
        mean(static_cast<double>(info.total_cow_copies), driver.folds),
        "count"};
    r.per_layer["persist.cut_bytes"] = {mean(driver.cut_bytes, driver.cuts),
                                        "B"};
    r.per_layer["persist.cut_units"] = {mean(driver.cut_units, driver.cuts),
                                        "count"};
    r.per_layer["persist.fold_bytes"] = {mean(driver.fold_bytes, driver.folds),
                                         "B"};
  }

  // ---- fixed pre-crash phase -------------------------------------------
  // Fold everything, then two cuts and a WAL tail of fixed sizes: every
  // run's reopen then replays the same shape of state (a base, a two-cut
  // chain and a tail of `tail_block` records), whatever point of the
  // cadence the timed phase stopped at.
  {
    Span sp("db.Compact");
    if (!store->Compact().ok()) r.fail("final fold failed");
  }
  std::vector<ClientLog> tail(1);
  for (int block = 0; block < 3; ++block) {
    for (std::size_t i = 0; i < tail_block; ++i) put_new(0, models[0], tail[0]);
    if (block == 2) break;
    Span sp("db.Checkpoint");
    if (!store->Checkpoint().ok()) r.fail("pre-crash cut failed");
  }
  merge_logs(tail, &r);

  // ---- crash, recovery, and the expected final state --------------------
  std::unordered_map<std::string, FileMetadata> final_state;
  for (const auto& f : in.base) final_state[f.name] = f;
  for (const auto& m : models) {
    for (const auto& name : m.deleted) final_state.erase(name);
    for (const auto& [name, f] : m.live) final_state[name] = f;
  }
  std::vector<FileMetadata> expected;
  expected.reserve(final_state.size());
  for (auto& [name, f] : final_state) expected.push_back(f);
  store = crash_and_recover(std::move(store), options, path, expected, &r);
  if (!store) return r;

  report_space(*store, &r);
  r.fail(store->Close().ok() ? "" : "close failed");
  r.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  const std::vector<SpanRecord> spans =
      finish_per_layer(cfg, probe, writes.ops, before, after, &r);
  if (!spans.empty()) {
    // New-file put throughput of the timed phase inside and outside the
    // fold intervals, each fold clipped to the timed phase.
    std::vector<std::pair<std::int64_t, std::int64_t>> folds;
    double fold_ns = 0;
    for (const auto& s : spans) {
      if (std::string(s.name) != "db.Compact") continue;
      const std::int64_t lo = std::max(s.start_ns, timed_start_ns);
      const std::int64_t hi = std::min(s.end_ns, timed_end_ns);
      if (lo >= hi) continue;
      folds.emplace_back(lo, hi);
      fold_ns += static_cast<double>(hi - lo);
    }
    std::uint64_t in_fold = 0, no_fold = 0;
    for (const auto& s : spans) {
      if (std::string(s.name) != "op.put" || s.end_ns < timed_start_ns ||
          s.end_ns > timed_end_ns)
        continue;
      const bool inside = std::any_of(
          folds.begin(), folds.end(),
          [&](const auto& f) { return s.end_ns >= f.first && s.end_ns < f.second; });
      ++(inside ? in_fold : no_fold);
    }
    const double timed_ns = static_cast<double>(timed_end_ns - timed_start_ns);
    r.per_layer["persist.puts_per_s_in_fold"].value =
        fold_ns > 0 ? static_cast<double>(in_fold) / (fold_ns / 1e9) : 0;
    r.per_layer["persist.puts_per_s_no_fold"].value =
        timed_ns > fold_ns
            ? static_cast<double>(no_fold) / ((timed_ns - fold_ns) / 1e9)
            : 0;
    // After the spans are taken, so its fsync-bound puts stay out of the
    // per-op self times.
    adaptive_commit_probe(cfg, in, &r);
  }
  return r;
}

}  // namespace perfbench
