// The `service` workload: four shards, each a durable db::Store behind a
// svc::MetaService bound to an in-process transport endpoint (rf = 1),
// and one svc::Router per client thread. The parts are composed here, as
// svc::Cluster composes them, so that spans can sit at each boundary:
// Router call → rpc::Channel::Call → MetaService::Handle.
//
// Clients mix new-file puts, deletes of their own earlier puts, point
// lookups (their own acked names, and trace names present or absent),
// and pinned scatter range/top-k. After they stop: flush, a simulated
// crash of every shard, a timed reopen, and the checks: shard totals sum
// to the expected count, every acked name is found with its id, every
// deleted one is absent, and pinned scatter range/top-k equal the
// exhaustive answer over the expected set.
#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <unordered_map>

#include "embedded.h"
#include "rpc/inproc.h"
#include "svc/meta_service.h"
#include "svc/partition.h"
#include "svc/router.h"

namespace perfbench {

namespace {

namespace rpc = smartstore::rpc;
namespace svc = smartstore::svc;

constexpr int kClients = 3;  // a core stays free for background work
constexpr std::uint32_t kShards = 4;
// One round per client: P = new-file put, D = delete of the client's
// oldest live put, Q = point lookup, R = pinned range, T = pinned top-k.
// As many deletes as puts, so the shards' size, and with it the cost of a
// scatter and of a reopen, stays the same however long the run. A pinned
// top-k scans every record of every shard; one per 68 ops keeps it under
// half of the run's time.
constexpr char kRound[] =
    "PQPQRDQPQDQPQRDQPRQDPQDQPQRDPQDQDQ"
    "PQPQRDQPQDQPQTDQPRQDPQDQPQRDPQDQDQ";
constexpr std::size_t kRoundOps = sizeof(kRound) - 1;

const char* call_span(rpc::Method m) {
  switch (m) {
    case rpc::Method::kPut: return "rpc.Call.put";
    case rpc::Method::kDelete: return "rpc.Call.delete";
    case rpc::Method::kPointQuery: return "rpc.Call.point";
    case rpc::Method::kRangeQuery: return "rpc.Call.range";
    case rpc::Method::kTopKQuery: return "rpc.Call.topk";
    default: return "rpc.Call.other";
  }
}

const char* handle_span(rpc::Method m) {
  switch (m) {
    case rpc::Method::kPut: return "svc.Handle.put";
    case rpc::Method::kDelete: return "svc.Handle.delete";
    case rpc::Method::kPointQuery: return "svc.Handle.point";
    case rpc::Method::kRangeQuery: return "svc.Handle.range";
    case rpc::Method::kTopKQuery: return "svc.Handle.topk";
    default: return "svc.Handle.other";
  }
}

/// A channel that records an "rpc.Call.<method>" span around the inner
/// channel's Call, with the request and response payload bytes.
class TracedChannel : public rpc::Channel {
 public:
  explicit TracedChannel(std::shared_ptr<rpc::Channel> inner)
      : inner_(std::move(inner)) {}
  smartstore::db::Status Call(const rpc::Frame& req,
                              rpc::Frame* resp) override {
    Span s(call_span(req.method));
    smartstore::db::Status st = inner_->Call(req, resp);
    s.add_bytes(req.payload.size() + resp->payload.size());
    return st;
  }

 private:
  std::shared_ptr<rpc::Channel> inner_;
};

struct Shard {
  std::unique_ptr<db::Store> store;
  std::unique_ptr<svc::MetaService> service;
};

/// One client's writes.
struct ClientModel {
  std::unordered_map<std::string, FileMetadata> live;
  std::deque<std::string> new_names;  ///< oldest first
  std::vector<std::string> deleted;
  std::size_t next_insert = 0;
  std::size_t next_point = 0;
};

}  // namespace

RunResult run_service(const RunConfig& cfg) {
  RunResult r;
  InputSizes sizes;
  sizes.tif = 1;
  sizes.downscale = cfg.tiny ? 20 : 1;
  sizes.inserts = cfg.tiny ? 400 : 80000;
  sizes.points = cfg.tiny ? 256 : 4096;
  sizes.ranges = cfg.tiny ? 16 : 600;
  sizes.topks = cfg.tiny ? 16 : 600;
  const Inputs in = make_inputs(cfg.seed, sizes);
  const std::size_t tail_puts = cfg.tiny ? 100 : 4000;
  reset_dir(cfg.state_dir);

  const svc::PartitionMap map = svc::PartitionMap::RoundRobin(kShards);
  std::vector<std::vector<FileMetadata>> slices(kShards);
  for (const auto& f : in.base) slices[map.shard_of(f.name)].push_back(f);
  // Each shard standardises top-k distances by its own bulkload slice.
  std::vector<Standardization> st;
  for (const auto& s : slices) st.push_back(Standardization::fit(s));

  rpc::InprocNetwork net;
  std::vector<Shard> shards(kShards);
  auto shard_options = [](std::uint32_t s) {
    db::Options o;  // durable; one placement seed per shard
    o.seed = 42 + s;
    o.group_commit = kGroupCommit;
    return o;
  };
  auto shard_path = [&](std::uint32_t s) {
    return cfg.state_dir + "/shard-" + std::to_string(s);
  };
  auto bind = [&](std::uint32_t s) {
    svc::MetaServiceOptions mo;
    mo.shard_id = s;
    shards[s].service = std::make_unique<svc::MetaService>(
        shards[s].store.get(), map, mo);
    svc::MetaService* service = shards[s].service.get();
    net.Bind(s, [service](const rpc::Frame& req) {
      Span sp(handle_span(req.method));
      return service->Handle(req);
    });
  };

  const double t_setup = now_s();
  for (std::uint32_t s = 0; s < kShards; ++s) {
    shards[s].store = open_store(shard_options(s), shard_path(s), &r);
    if (!shards[s].store) return r;
    Span sp("db.Bulkload");
    if (!shards[s].store->Bulkload(slices[s]).ok()) r.fail("bulkload failed");
    bind(s);
  }
  r.end_to_end["setup_s"] = {now_s() - t_setup, "s"};
  if (!r.correct) return r;

  std::vector<std::shared_ptr<rpc::Channel>> channels;
  for (std::uint32_t s = 0; s < kShards; ++s)
    channels.push_back(std::make_shared<TracedChannel>(net.Connect(s)));
  std::vector<std::unique_ptr<svc::Router>> routers;
  for (int c = 0; c < kClients; ++c) {
    svc::RouterOptions ro;
    ro.client_id = static_cast<std::uint64_t>(c) + 1;
    routers.push_back(std::make_unique<svc::Router>(channels, map, ro));
  }

  // Every record a client may see: the base, and the insert pool, whose
  // slots come back under new names and ids with the same attributes
  // (see nth_insert).
  const RecordIndex index = index_by_id(in.base);
  const std::size_t pool = in.inserts.size();
  const FileId first_insert = in.inserts.front().id;
  const Lookup known = [&](FileId id) -> const FileMetadata* {
    if (id >= first_insert) return &in.inserts[(id - first_insert) % pool];
    const auto it = index.find(id);
    return it == index.end() ? nullptr : it->second;
  };
  std::unordered_map<std::string, FileId> base_id;
  for (const auto& f : in.base) base_id[f.name] = f.id;
  auto topk_dist = [&](const TopKQuery& q) -> DistanceFn {
    return [&st, &map, &q](const FileMetadata& f) {
      return st[map.shard_of(f.name)].dist2(f, q);
    };
  };

  auto put_new = [&](int c, svc::Router& router, ClientModel& m,
                     ClientLog& log) {
    const FileMetadata f = nth_insert(in.inserts, c, kClients, m.next_insert++);
    Span op("op.put");
    const double t0 = now_s();
    smartstore::db::Status s;
    {
      Span sp("router.Put");
      s = router.Put(f);
    }
    log.put.add((now_s() - t0) * 1e6);
    if (!s.ok()) log.fail("put " + f.name + ": " + s.ToString());
    m.live[f.name] = f;
    m.new_names.push_back(f.name);
  };

  // ---- timed phase -----------------------------------------------------
  std::vector<ClientModel> models(kClients);
  std::vector<ClientLog> logs;
  const ProcCounters before = ProcCounters::read();
  run_closed_loop(
      kClients, cfg.seconds, &logs,
      [&](int c, std::uint64_t round, ClientLog& log) {
        svc::Router& router = *routers[static_cast<std::size_t>(c)];
        ClientModel& m = models[static_cast<std::size_t>(c)];
        const std::size_t offset = static_cast<std::size_t>(round) +
                                   static_cast<std::size_t>(c) * 7919;
        std::size_t q_in_round = 0, rq = 0, tq = 0;
        for (std::size_t i = 0; i < kRoundOps && log.error.empty(); ++i) {
          const char kind = kRound[i];
          Tracer::set_op(Tracer::next_op());
          if (kind == 'P') {
            put_new(c, router, m, log);
          } else if (kind == 'D') {
            const std::string name = m.new_names.front();
            m.new_names.pop_front();
            Span op("op.delete");
            const double t0 = now_s();
            smartstore::db::Status s;
            {
              Span sp("router.Delete");
              s = router.Delete(name);
            }
            log.del.add((now_s() - t0) * 1e6);
            if (!s.ok()) log.fail("delete " + name + ": " + s.ToString());
            m.live.erase(name);
            m.deleted.push_back(name);
          } else if (kind == 'Q') {
            // Alternately the client's newest acked name and a trace name
            // (present in the base, or absent).
            std::string name;
            FileId expected = 0;
            if (q_in_round++ % 2 == 0 && !m.new_names.empty()) {
              name = m.new_names.back();
              expected = m.live.at(name).id;
            } else {
              name = in.point_names[(offset * 3 + m.next_point++) %
                                    in.point_names.size()];
              const auto it = base_id.find(name);
              expected = it == base_id.end() ? 0 : it->second;
            }
            Span op("op.point");
            const double t0 = now_s();
            smartstore::db::StatusOr<smartstore::db::QueryResult> res = [&] {
              Span sp("router.Point");
              return router.Point(name);
            }();
            log.point.add((now_s() - t0) * 1e6);
            if (!res.ok()) {
              log.fail("point " + name + ": " + res.status().ToString());
            } else if (res->found || expected == 0) {
              log.fail(check_point(res->found, res->id, expected, name));
            }
          } else if (kind == 'R') {
            const RangeQuery& q =
                in.ranges[(offset * 3 + rq++) % in.ranges.size()];
            Span op("op.range");
            const double t0 = now_s();
            smartstore::db::StatusOr<smartstore::db::QueryResult> res = [&] {
              Span sp("router.Range");
              return router.Range(q);
            }();
            log.range.add((now_s() - t0) * 1e6);
            if (!res.ok()) log.fail("range: " + res.status().ToString());
            else log.fail(check_range_sound(res->ids, q, known));
          } else {
            const TopKQuery& q =
                in.topks[(offset * 3 + tq++) % in.topks.size()];
            Span op("op.topk");
            const double t0 = now_s();
            smartstore::db::StatusOr<smartstore::db::QueryResult> res = [&] {
              Span sp("router.TopK");
              return router.TopK(q);
            }();
            log.topk.add((now_s() - t0) * 1e6);
            if (!res.ok())
              log.fail("top-k: " + res.status().ToString());
            else
              log.fail(check_topk_sound(res->hits, q.k, topk_dist(q), known,
                                        {}));
          }
          ++log.ops;
        }
      });
  const ProcCounters after = ProcCounters::read();
  const ClientLog all = merge_logs(logs, &r);
  report_throughput(&r, all);
  report_latency(&r, "put", all.put, cfg.tiny);
  report_latency(&r, "point", all.point, cfg.tiny);
  report_latency(&r, "range", all.range, cfg.tiny);
  report_latency(&r, "topk", all.topk, cfg.tiny);
  r.end_to_end["bytes_written_per_put"] = {
      static_cast<double>(after.wchar - before.wchar) /
          static_cast<double>(std::max<std::size_t>(1, all.put.size())),
      "B"};
  r.per_layer["persist.write_calls_per_put"] = {
      static_cast<double>(after.syscw - before.syscw) /
          static_cast<double>(std::max<std::size_t>(1, all.put.size())),
      "count"};
  svc::RouterStats rs;
  for (const auto& router : routers) {
    const svc::RouterStats s = router->stats();
    rs.redirects += s.redirects;
    rs.retries += s.retries;
    rs.unpinned_scatters += s.unpinned_scatters;
  }
  // Fold every shard, then a WAL tail of fixed size: every run's reopen
  // replays the same shape of state, whatever its throughput was.
  for (auto& sh : shards)
    if (!sh.store->Compact().ok()) r.fail("pre-crash fold failed");
  std::vector<ClientLog> tail(1);
  for (std::size_t i = 0; i < tail_puts; ++i) {
    Tracer::set_op(Tracer::next_op());
    put_new(0, *routers[0], models[0], tail[0]);
    ++tail[0].ops;
  }
  Tracer::set_op(0);
  merge_logs(tail, &r);
  if (!routers[0]->Flush().ok()) r.fail("flush before the crash failed");

  // ---- crash every shard, reopen (the fastest of 15 rounds) ---------
  std::vector<double> recover_times;
  for (int round = 0; round < 15; ++round) {
    for (std::uint32_t s = 0; s < kShards; ++s) {
      net.Unbind(s);
      shards[s].service.reset();
      shards[s].store->Abandon();
      shards[s].store.reset();
    }
    const double t_recover = now_s();
    for (std::uint32_t s = 0; s < kShards; ++s) {
      shards[s].store = open_store(shard_options(s), shard_path(s), &r);
      if (!shards[s].store) return r;
      bind(s);
    }
    recover_times.push_back(now_s() - t_recover);
  }
  r.per_layer["persist.recover_s"] = {
      *std::min_element(recover_times.begin(), recover_times.end()), "s"};
  {
    double wal = 0, delta = 0;
    for (const auto& sh : shards) {
      wal += static_cast<double>(sh.store->recovery_info().wal_records);
      delta += static_cast<double>(sh.store->recovery_info().delta_records);
    }
    r.per_layer["persist.recover_wal_records"] = {wal, "count"};
    r.per_layer["persist.recover_delta_records"] = {delta, "count"};
  }

  // ---- checks against the expected set ---------------------------------
  std::unordered_map<std::string, FileMetadata> final_state;
  for (const auto& f : in.base) final_state[f.name] = f;
  for (const auto& m : models) {
    for (const auto& name : m.deleted) final_state.erase(name);
    for (const auto& [name, f] : m.live) final_state[name] = f;
  }
  std::vector<std::uint64_t> totals;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    auto stats = routers[0]->Stats(s);
    if (!stats.ok()) return r.fail("stats: " + stats.status().ToString()), r;
    totals.push_back(stats->total_files);
  }
  r.fail(check_shard_totals(totals, final_state.size()));

  // Routed lookups are offline: a stale replica can miss an acked name
  // (counted). The owning shard's exact snapshot read must still find it.
  std::vector<ClientLog> verify;
  std::atomic<std::uint64_t> acked_misses{0};
  run_parallel(kClients, &verify, [&](int c, ClientLog& log) {
    svc::Router& router = *routers[static_cast<std::size_t>(c)];
    const ClientModel& m = models[static_cast<std::size_t>(c)];
    auto exact = [&](const std::string& name) {
      return shards[map.shard_of(name)].store->Query(
          db::QueryRequest::Point(name), db::ReadOptions{});
    };
    for (const auto& [name, f] : m.live) {
      auto res = router.Point(name);
      if (!res.ok()) return log.fail("point: " + res.status().ToString());
      if (res->found) {
        log.fail(check_point(res->found, res->id, f.id, name));
        continue;
      }
      acked_misses.fetch_add(1);
      auto snap = exact(name);
      if (!snap.ok()) return log.fail("point: " + snap.status().ToString());
      log.fail(check_point(snap->found, snap->id, f.id, name));
    }
    for (const auto& name : m.deleted) {
      auto res = router.Point(name);
      auto snap = exact(name);
      if (!res.ok() || !snap.ok()) return log.fail("point lookup failed");
      log.fail(check_point(res->found, res->id, 0, name));
      log.fail(check_point(snap->found, snap->id, 0, name));
    }
  });
  for (const auto& l : verify) r.fail(l.error);

  std::vector<std::vector<FileMetadata>> expected_by_shard(kShards);
  for (const auto& [name, f] : final_state)
    expected_by_shard[map.shard_of(name)].push_back(f);
  std::size_t range_hit = 0, range_total = 0, topk_hit = 0, topk_total = 0;
  for (const auto& q : in.ranges) {
    std::vector<FileId> want;
    for (const auto& s : expected_by_shard) {
      const auto part = exhaustive_range(s, q);
      want.insert(want.end(), part.begin(), part.end());
    }
    std::sort(want.begin(), want.end());
    auto res = routers[0]->Range(q);
    if (!res.ok()) return r.fail("range: " + res.status().ToString()), r;
    r.fail(check_range_exact(res->ids, want));
    const auto [h, t] = range_hits(res->ids, want);
    range_hit += h;
    range_total += t;
  }
  for (const auto& q : in.topks) {
    TopKAnswer want;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      const auto part = exhaustive_topk(expected_by_shard[s], st[s], q);
      want.insert(want.end(), part.begin(), part.end());
    }
    std::sort(want.begin(), want.end());
    if (want.size() > q.k) want.resize(q.k);
    auto res = routers[0]->TopK(q);
    if (!res.ok()) return r.fail("top-k: " + res.status().ToString()), r;
    r.fail(check_topk_exact(res->hits, want));
    topk_hit += topk_hits(res->hits, want);
    topk_total += want.size();
  }
  auto ratio = [](std::size_t a, std::size_t b) {
    return b == 0 ? 1.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  r.end_to_end["range_recall"] = {ratio(range_hit, range_total), "ratio"};
  r.end_to_end["topk_recall"] = {ratio(topk_hit, topk_total), "ratio"};

  double space = 0;
  for (const auto& sh : shards)
    space += static_cast<double>(sh.store->GetSpaceInfo().total_bytes);
  routers.clear();
  for (std::uint32_t s = 0; s < kShards; ++s) {
    net.Unbind(s);
    shards[s].service.reset();
    if (!shards[s].store->Close().ok()) r.fail("close failed");
  }
  r.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  const std::vector<SpanRecord> spans =
      finish_per_layer(cfg, ClientLog{}, all.ops, before, after, &r);
  auto set = [&](const std::string& name, double v) {
    r.per_layer[name].value = v;
  };
  set("core.space_bytes_per_unit", space / kShards);
  set("svc.acked_point_misses", static_cast<double>(acked_misses.load()));
  set("svc.redirects", static_cast<double>(rs.redirects));
  set("svc.retries", static_cast<double>(rs.retries));
  set("svc.unpinned_scatters", static_cast<double>(rs.unpinned_scatters));
  if (spans.empty()) return r;

  // Span-derived service metrics, over the timed phase's client ops.
  std::unordered_map<std::uint64_t, std::string> op_kind;
  for (const auto& s : spans) {
    const std::string name = s.name;
    if (name.rfind("op.", 0) == 0 && s.op != 0) op_kind[s.op] = name.substr(3);
  }
  const auto totals_by_name = Tracer::totals(spans);
  auto total = [&](const std::string& name) {
    const auto it = totals_by_name.find(name);
    return it == totals_by_name.end() ? SpanTotals{} : it->second;
  };
  double router_self = 0, router_n = 0, call_us = 0, handle_us = 0,
         calls = 0;
  for (const auto& [name, t] : totals_by_name) {
    if (name.rfind("router.", 0) == 0) {
      router_self += t.self_us;
      router_n += static_cast<double>(t.count);
    }
    if (name.rfind("rpc.Call.", 0) == 0) {
      call_us += t.total_us;
      calls += static_cast<double>(t.count);
    }
    if (name.rfind("svc.Handle.", 0) == 0) handle_us += t.total_us;
  }
  set("svc.router_self_us", router_n > 0 ? router_self / router_n : 0);
  set("rpc.transport_us", calls > 0 ? (call_us - handle_us) / calls : 0);
  for (const char* m : {"put", "delete", "point", "range", "topk"}) {
    const SpanTotals h = total(std::string("svc.Handle.") + m);
    set(std::string("svc.handle_") + m + "_us",
        h.count > 0 ? h.total_us / static_cast<double>(h.count) : 0);
  }
  // Calls and payload bytes per client op of each kind, and the slowest
  // shard of each scatter.
  std::unordered_map<std::string, double> kind_ops, kind_calls, kind_bytes;
  std::unordered_map<std::uint64_t, double> slowest;
  for (const auto& [op, kind] : op_kind) kind_ops[kind] += 1;
  for (const auto& s : spans) {
    const std::string name = s.name;
    if (name.rfind("rpc.Call.", 0) != 0) continue;
    const auto it = op_kind.find(s.op);
    if (it == op_kind.end()) continue;
    kind_calls[it->second] += 1;
    kind_bytes[it->second] += static_cast<double>(s.bytes);
    if (it->second == "range" || it->second == "topk") {
      const std::string method = name.substr(9);
      if (method == it->second) {
        const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
        slowest[s.op] = std::max(slowest[s.op], us);
      }
    }
  }
  for (const char* k : {"put", "point", "range", "topk"}) {
    const double n = kind_ops[k];
    set(std::string("rpc.calls_per_") + k, n > 0 ? kind_calls[k] / n : 0);
    set(std::string("rpc.bytes_per_") + k, n > 0 ? kind_bytes[k] / n : 0);
  }
  double slow_sum = 0;
  for (const auto& [op, us] : slowest) slow_sum += us;
  set("svc.scatter_slowest_shard_us",
      slowest.empty() ? 0 : slow_sum / static_cast<double>(slowest.size()));
  return r;
}

}  // namespace perfbench
