#include "embedded.h"

#include <algorithm>

namespace perfbench {

Answers exhaustive_answers(const std::vector<FileMetadata>& records,
                           const Standardization& st,
                           const std::vector<RangeQuery>& ranges,
                           const std::vector<TopKQuery>& topks) {
  Answers a;
  for (const auto& q : ranges) a.ranges.push_back(exhaustive_range(records, q));
  for (const auto& q : topks) a.topks.push_back(exhaustive_topk(records, st, q));
  return a;
}

void point_op(db::Store& store, const std::string& name, FileId expected_id,
              ClientLog& log) {
  Tracer::set_op(Tracer::next_op());
  Span op("op.point");
  const double t0 = now_s();
  db::StatusOr<db::QueryResult> res = [&] {
    Span s("db.Query");
    return store.Query(db::QueryRequest::Point(name));
  }();
  log.point.add((now_s() - t0) * 1e6);
  ++log.ops;
  if (!res.ok()) return log.fail("point query: " + res.status().ToString());
  const db::QueryResult& q = *res;
  // Offline routing may miss an existing name (the paper's Fig. 9 hit
  // rate); a hit must carry the right id and an absent name never hits.
  if (q.found || expected_id == 0)
    log.fail(check_point(q.found, q.id, expected_id, name));
  log.point_groups += static_cast<double>(q.stats.groups_visited);
  log.point_msgs += static_cast<double>(q.stats.messages);
  if (q.found) {
    ++log.point_found;
    if (q.first_try) ++log.point_first_try;
  }
}

void range_op(db::Store& store, const RangeQuery& q, const Lookup& known,
              ClientLog& log) {
  Tracer::set_op(Tracer::next_op());
  Span op("op.range");
  const double t0 = now_s();
  db::StatusOr<db::QueryResult> res = [&] {
    Span s("db.Query");
    return store.Query(db::QueryRequest::Range(q));
  }();
  log.range.add((now_s() - t0) * 1e6);
  ++log.ops;
  if (!res.ok()) return log.fail("range query: " + res.status().ToString());
  log.fail(check_range_sound(res->ids, q, known));
  log.range_groups += static_cast<double>(res->stats.groups_visited);
  log.range_msgs += static_cast<double>(res->stats.messages);
  log.range_results += static_cast<double>(res->ids.size());
}

void topk_op(db::Store& store, const TopKQuery& q, const Standardization& st,
             const Lookup& known, const TopKAnswer& exhaustive,
             ClientLog& log) {
  Tracer::set_op(Tracer::next_op());
  Span op("op.topk");
  const double t0 = now_s();
  db::StatusOr<db::QueryResult> res = [&] {
    Span s("db.Query");
    return store.Query(db::QueryRequest::TopK(q));
  }();
  log.topk.add((now_s() - t0) * 1e6);
  ++log.ops;
  if (!res.ok()) return log.fail("top-k query: " + res.status().ToString());
  log.fail(check_topk_sound(
      res->hits, exhaustive.size(),
      [&](const FileMetadata& f) { return st.dist2(f, q); }, known,
      exhaustive));
  log.topk_groups += static_cast<double>(res->stats.groups_visited);
  log.topk_msgs += static_cast<double>(res->stats.messages);
}

void put_op(db::Store& store, const FileMetadata& f, Latencies& lat,
            ClientLog& log) {
  Tracer::set_op(Tracer::next_op());
  Span op("op.put");
  const double t0 = now_s();
  db::Status s = [&] {
    Span sp("db.Put");
    return store.Put(f);
  }();
  lat.add((now_s() - t0) * 1e6);
  ++log.ops;
  if (!s.ok()) log.fail("put " + f.name + ": " + s.ToString());
}

void recall_pass(db::Store& store, const std::vector<RangeQuery>& ranges,
                 const std::vector<TopKQuery>& topks, const Answers& answers,
                 const Standardization& st, const Lookup& known,
                 RunResult* r) {
  // Every eighth query also runs online-routed and as a snapshot read.
  constexpr std::size_t kExactSample = 8;
  std::size_t hit = 0, total = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    auto res = store.Query(db::QueryRequest::Range(ranges[i]));
    if (!res.ok()) return r->fail("range query: " + res.status().ToString());
    r->fail(check_range_sound(res->ids, ranges[i], known));
    const auto [h, t] = range_hits(res->ids, answers.ranges[i]);
    hit += h;
    total += t;
    if (i % kExactSample != 0) continue;
    db::QueryRequest online = db::QueryRequest::Range(ranges[i]);
    online.routing = db::Routing::kOnline;
    auto on = store.Query(online);
    auto snap =
        store.Query(db::QueryRequest::Range(ranges[i]), db::ReadOptions{});
    if (!on.ok() || !snap.ok()) return r->fail("exact range query failed");
    r->fail(check_range_exact(on->ids, answers.ranges[i]));
    r->fail(check_range_exact(snap->ids, answers.ranges[i]));
  }
  r->end_to_end["range_recall"] = {
      total == 0 ? 1.0 : static_cast<double>(hit) / static_cast<double>(total),
      "ratio"};

  hit = total = 0;
  for (std::size_t i = 0; i < topks.size(); ++i) {
    auto res = store.Query(db::QueryRequest::TopK(topks[i]));
    if (!res.ok()) return r->fail("top-k query: " + res.status().ToString());
    r->fail(check_topk_sound(
        res->hits, answers.topks[i].size(),
        [&](const FileMetadata& f) { return st.dist2(f, topks[i]); }, known,
        answers.topks[i]));
    hit += topk_hits(res->hits, answers.topks[i]);
    total += answers.topks[i].size();
    if (i % kExactSample != 0) continue;
    db::QueryRequest online = db::QueryRequest::TopK(topks[i]);
    online.routing = db::Routing::kOnline;
    auto on = store.Query(online);
    auto snap =
        store.Query(db::QueryRequest::TopK(topks[i]), db::ReadOptions{});
    if (!on.ok() || !snap.ok()) return r->fail("exact top-k query failed");
    r->fail(check_topk_exact(on->hits, answers.topks[i]));
    r->fail(check_topk_exact(snap->hits, answers.topks[i]));
  }
  r->end_to_end["topk_recall"] = {
      total == 0 ? 1.0 : static_cast<double>(hit) / static_cast<double>(total),
      "ratio"};
}

std::unique_ptr<db::Store> open_store(const db::Options& options,
                                      const std::string& path, RunResult* r) {
  Span s("db.Open");
  auto opened = db::Store::Open(options, path);
  if (!opened.ok()) {
    r->fail("open " + path + ": " + opened.status().ToString());
    return nullptr;
  }
  return std::move(opened).value();
}

std::unique_ptr<db::Store> crash_and_recover(
    std::unique_ptr<db::Store> store, const db::Options& options,
    const std::string& path, const std::vector<FileMetadata>& expected,
    RunResult* r) {
  {
    Span s("db.Flush");
    r->fail(store->Flush().ok() ? "" : "flush before the crash failed");
  }
  // Crash and reopen kRecoveries times (reopening replays the same base,
  // chain and WAL tail) and report the fastest reopen: interference from
  // the machine's other tenants only ever adds time.
  constexpr int kRecoveries = 15;
  std::vector<double> times;
  for (int i = 0; i < kRecoveries; ++i) {
    store->Abandon();
    store.reset();
    const double t0 = now_s();
    store = open_store(options, path, r);
    times.push_back(now_s() - t0);
    if (!store) return nullptr;
    if (i == 0) {
      const db::RecoveryInfo& info = store->recovery_info();
      r->per_layer["persist.recover_wal_records"] = {
          static_cast<double>(info.wal_records), "count"};
      r->per_layer["persist.recover_delta_records"] = {
          static_cast<double>(info.delta_records), "count"};
    }
  }
  r->per_layer["persist.recover_s"] = {
      *std::min_element(times.begin(), times.end()), "s"};

  std::uint64_t seq = 0;
  auto dump = store->DumpSnapshot(&seq);
  if (!dump.ok()) {
    r->fail("dump after recovery: " + dump.status().ToString());
    return nullptr;
  }
  r->fail(check_dump(*dump, expected));
  return store;
}

void report_space(db::Store& store, RunResult* r) {
  r->per_layer["core.space_bytes_per_unit"] = {
      static_cast<double>(store.GetSpaceInfo().total_bytes), "B"};
}

}  // namespace perfbench
