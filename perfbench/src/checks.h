// Answers computed apart from the program, and the checkers that compare
// the program's outputs with them.
//
// Nothing here calls into SmartStore: exhaustive range and top-k answers
// come from the benchmark's own scan over the records it generated, and
// top-k distances are recomputed from the benchmark's own fit of the
// per-attribute mean and standard deviation. Every checker returns an
// empty string on success and a one-line reason on failure; the
// self-test feeds each one a wrong answer and expects a reason back.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "metadata/file_metadata.h"
#include "metadata/query.h"

namespace perfbench {

using smartstore::metadata::FileId;
using smartstore::metadata::FileMetadata;
using smartstore::metadata::kNumAttrs;
using smartstore::metadata::RangeQuery;
using smartstore::metadata::TopKQuery;

/// Per-attribute (mean, 1/stdev) over a population: the standardisation
/// the paper's top-k distance is defined on (population stdev; a constant
/// attribute maps to 0).
struct Standardization {
  std::array<double, kNumAttrs> mean{};
  std::array<double, kNumAttrs> inv_sd{};

  static Standardization fit(const std::vector<FileMetadata>& files);
  double dist2(const FileMetadata& f, const TopKQuery& q) const;
};

/// Exhaustive answers over one set of records.
std::vector<FileId> exhaustive_range(const std::vector<FileMetadata>& files,
                                     const RangeQuery& q);

/// The k smallest (dist², id), ascending by (dist², id).
std::vector<std::pair<double, FileId>> exhaustive_topk(
    const std::vector<FileMetadata>& files, const Standardization& st,
    const TopKQuery& q);

/// Records by id, for the per-id checks.
using RecordIndex = std::unordered_map<FileId, const FileMetadata*>;
RecordIndex index_by_id(const std::vector<FileMetadata>& files);

/// The record an id names (nullptr when the benchmark never wrote it).
using Lookup = std::function<const FileMetadata*(FileId)>;
Lookup lookup_in(const RecordIndex& index);

/// A record's squared distance to a query point, as the shard holding it
/// standardises it.
using DistanceFn = std::function<double(const FileMetadata&)>;

// ---- checkers --------------------------------------------------------------

/// Every returned id is a known record inside the box, none twice.
std::string check_range_sound(const std::vector<FileId>& ids,
                              const RangeQuery& q, const Lookup& known);

/// Returned ids equal the exhaustive answer as sets.
std::string check_range_exact(const std::vector<FileId>& ids,
                              const std::vector<FileId>& exhaustive);

/// `want` hits, sorted by distance, each distance equal to the
/// recomputation, no id twice, and (when the exhaustive answer is known,
/// i.e. non-empty) the i-th distance never below the exhaustive i-th.
std::string check_topk_sound(
    const std::vector<std::pair<double, FileId>>& hits, std::size_t want,
    const DistanceFn& dist2, const Lookup& known,
    const std::vector<std::pair<double, FileId>>& exhaustive);

/// Distances equal the exhaustive answer position by position (ties may
/// order ids differently).
std::string check_topk_exact(
    const std::vector<std::pair<double, FileId>>& hits,
    const std::vector<std::pair<double, FileId>>& exhaustive);

/// A point lookup: `expected_id` 0 means the name must be absent.
std::string check_point(bool found, FileId id, FileId expected_id,
                        const std::string& name);

/// A dump equals the expected record set, attributes included.
std::string check_dump(const std::vector<FileMetadata>& dump,
                       const std::vector<FileMetadata>& expected);

/// Shard totals sum to the expected record count.
std::string check_shard_totals(const std::vector<std::uint64_t>& totals,
                               std::uint64_t expected);

/// Recall of one range answer: (returned ∩ exhaustive, |exhaustive|).
std::pair<std::size_t, std::size_t> range_hits(
    const std::vector<FileId>& ids, const std::vector<FileId>& exhaustive);

/// Recall of one top-k answer: hits within the exhaustive k-th distance.
std::size_t topk_hits(const std::vector<std::pair<double, FileId>>& hits,
                      const std::vector<std::pair<double, FileId>>& exhaustive);

}  // namespace perfbench
