// Checked, timed calls into an embedded db::Store, shared by the ingest
// and query workloads.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness.h"
#include "smartstore/store.h"

namespace perfbench {

namespace db = smartstore::db;

using TopKAnswer = std::vector<std::pair<double, FileId>>;

/// The expected answers for a pool of queries over one record set.
struct Answers {
  std::vector<std::vector<FileId>> ranges;
  std::vector<TopKAnswer> topks;
};

Answers exhaustive_answers(const std::vector<FileMetadata>& records,
                           const Standardization& st,
                           const std::vector<RangeQuery>& ranges,
                           const std::vector<TopKQuery>& topks);

/// One client op each: a root "op.<kind>" span, a "db.Query" span inside,
/// the client-side latency, the answer checked, QueryStats summed.
/// `expected_id` 0 means the name is absent.
void point_op(db::Store& store, const std::string& name, FileId expected_id,
              ClientLog& log);
void range_op(db::Store& store, const RangeQuery& q, const Lookup& known,
              ClientLog& log);
void topk_op(db::Store& store, const TopKQuery& q, const Standardization& st,
             const Lookup& known, const TopKAnswer& exhaustive,
             ClientLog& log);

/// A put of a new (or upserted) record, timed into `lat`.
void put_op(db::Store& store, const FileMetadata& f, Latencies& lat,
            ClientLog& log);

/// Offline recall over a query pool, one query each (single-threaded,
/// untimed): sets `range_recall` and `topk_recall`. A sample of the pool
/// also runs online-routed and as a snapshot read, and must equal the
/// exhaustive answer exactly.
void recall_pass(db::Store& store, const std::vector<RangeQuery>& ranges,
                 const std::vector<TopKQuery>& topks, const Answers& answers,
                 const Standardization& st, const Lookup& known,
                 RunResult* r);

/// Opens `path` (timed as "db.Open"); nullptr (and `r` failed) on error.
std::unique_ptr<db::Store> open_store(const db::Options& options,
                                      const std::string& path, RunResult* r);

/// Flush, then 15 rounds of simulated crash and timed reopen: sets the
/// per-layer persist.recover_s (the fastest reopen) and recovery counters,
/// and checks the recovered contents against `expected`. Returns the
/// reopened store (nullptr on failure).
std::unique_ptr<db::Store> crash_and_recover(
    std::unique_ptr<db::Store> store, const db::Options& options,
    const std::string& path, const std::vector<FileMetadata>& expected,
    RunResult* r);

/// The space breakdown per storage unit (per-layer core.space_bytes_per_unit).
void report_space(db::Store& store, RunResult* r);

}  // namespace perfbench
