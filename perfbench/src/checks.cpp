#include "checks.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace perfbench {
namespace {

std::string id_str(FileId id) { return std::to_string(id); }

/// Distances from the program and from the recomputation follow the same
/// arithmetic; allow only rounding-level differences.
bool same_distance(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

}  // namespace

Standardization Standardization::fit(const std::vector<FileMetadata>& files) {
  Standardization s;
  if (files.empty()) return s;
  const double n = static_cast<double>(files.size());
  for (std::size_t d = 0; d < kNumAttrs; ++d) {
    double sum = 0.0;
    for (const auto& f : files) sum += f.attrs[d];
    const double m = sum / n;
    double acc = 0.0;
    for (const auto& f : files) acc += (f.attrs[d] - m) * (f.attrs[d] - m);
    const double sd = files.size() < 2 ? 0.0 : std::sqrt(acc / n);
    s.mean[d] = m;
    s.inv_sd[d] = sd > 0.0 ? 1.0 / sd : 0.0;
  }
  return s;
}

double Standardization::dist2(const FileMetadata& f,
                              const TopKQuery& q) const {
  double dist = 0.0;
  for (std::size_t i = 0; i < q.dims.size(); ++i) {
    const std::size_t d = static_cast<std::size_t>(q.dims[i]);
    const double c = (f.attrs[d] - mean[d]) * inv_sd[d];
    const double p = (q.point[i] - mean[d]) * inv_sd[d];
    dist += (c - p) * (c - p);
  }
  return dist;
}

std::vector<FileId> exhaustive_range(const std::vector<FileMetadata>& files,
                                     const RangeQuery& q) {
  std::vector<FileId> out;
  for (const auto& f : files) {
    bool in = true;
    for (std::size_t i = 0; i < q.dims.size() && in; ++i) {
      const double v = f.attrs[static_cast<std::size_t>(q.dims[i])];
      in = v >= q.lo[i] && v <= q.hi[i];
    }
    if (in) out.push_back(f.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<double, FileId>> exhaustive_topk(
    const std::vector<FileMetadata>& files, const Standardization& st,
    const TopKQuery& q) {
  std::vector<std::pair<double, FileId>> all;
  all.reserve(files.size());
  for (const auto& f : files) all.emplace_back(st.dist2(f, q), f.id);
  const std::size_t k = std::min(q.k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(k),
                    all.end());
  return {all.begin(), all.begin() + static_cast<long>(k)};
}

RecordIndex index_by_id(const std::vector<FileMetadata>& files) {
  RecordIndex idx;
  idx.reserve(files.size());
  for (const auto& f : files) idx[f.id] = &f;
  return idx;
}

Lookup lookup_in(const RecordIndex& index) {
  return [&index](FileId id) -> const FileMetadata* {
    const auto it = index.find(id);
    return it == index.end() ? nullptr : it->second;
  };
}

std::string check_range_sound(const std::vector<FileId>& ids,
                              const RangeQuery& q, const Lookup& known) {
  std::unordered_set<FileId> seen;
  for (FileId id : ids) {
    if (!seen.insert(id).second) return "range returned id " + id_str(id) +
                                        " twice";
    const FileMetadata* f = known(id);
    if (f == nullptr) return "range returned unknown id " + id_str(id);
    for (std::size_t i = 0; i < q.dims.size(); ++i) {
      const double v = f->attrs[static_cast<std::size_t>(q.dims[i])];
      if (v < q.lo[i] || v > q.hi[i])
        return "range returned id " + id_str(id) + " outside the box";
    }
  }
  return "";
}

std::string check_range_exact(const std::vector<FileId>& ids,
                              const std::vector<FileId>& exhaustive) {
  std::vector<FileId> got = ids;
  std::sort(got.begin(), got.end());
  if (got == exhaustive) return "";
  std::vector<FileId> missing;
  std::set_difference(exhaustive.begin(), exhaustive.end(), got.begin(),
                      got.end(), std::back_inserter(missing));
  if (!missing.empty())
    return "range dropped id " + id_str(missing.front()) + " (" +
           std::to_string(missing.size()) + " missing)";
  return "range returned " + std::to_string(got.size()) + " ids, exhaustive " +
         std::to_string(exhaustive.size());
}

std::string check_topk_sound(
    const std::vector<std::pair<double, FileId>>& hits, std::size_t want,
    const DistanceFn& dist2, const Lookup& known,
    const std::vector<std::pair<double, FileId>>& exhaustive) {
  if (hits.size() != want)
    return "top-k returned " + std::to_string(hits.size()) + " hits, want " +
           std::to_string(want);
  std::unordered_set<FileId> seen;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const auto [d, id] = hits[i];
    if (!seen.insert(id).second) return "top-k returned id " + id_str(id) +
                                        " twice";
    if (i > 0 && d < hits[i - 1].first) return "top-k hits are not sorted";
    const FileMetadata* f = known(id);
    if (f == nullptr) return "top-k returned unknown id " + id_str(id);
    if (!same_distance(d, dist2(*f)))
      return "top-k distance of id " + id_str(id) + " is wrong";
    if (i < exhaustive.size() && d < exhaustive[i].first &&
        !same_distance(d, exhaustive[i].first))
      return "top-k hit " + std::to_string(i) +
             " beats the exhaustive distance";
  }
  return "";
}

std::string check_topk_exact(
    const std::vector<std::pair<double, FileId>>& hits,
    const std::vector<std::pair<double, FileId>>& exhaustive) {
  if (hits.size() != exhaustive.size())
    return "top-k returned " + std::to_string(hits.size()) + " hits, want " +
           std::to_string(exhaustive.size());
  for (std::size_t i = 0; i < hits.size(); ++i)
    if (!same_distance(hits[i].first, exhaustive[i].first))
      return "top-k hit " + std::to_string(i) +
             " differs from the exhaustive answer";
  return "";
}

std::string check_point(bool found, FileId id, FileId expected_id,
                        const std::string& name) {
  if (expected_id == 0)
    return found ? "absent name " + name + " was found" : "";
  if (!found) return "name " + name + " was not found";
  if (id != expected_id)
    return "name " + name + " has id " + id_str(id) + ", want " +
           id_str(expected_id);
  return "";
}

std::string check_dump(const std::vector<FileMetadata>& dump,
                       const std::vector<FileMetadata>& expected) {
  std::unordered_map<std::string, const FileMetadata*> want;
  want.reserve(expected.size());
  for (const auto& f : expected) want[f.name] = &f;
  std::unordered_set<std::string> seen;
  for (const auto& f : dump) {
    const auto it = want.find(f.name);
    if (it == want.end()) return "store holds unexpected name " + f.name;
    if (!seen.insert(f.name).second) return "store holds " + f.name + " twice";
    if (it->second->id != f.id || it->second->attrs != f.attrs)
      return "store holds stale attributes for " + f.name;
  }
  if (seen.size() != want.size()) {
    for (const auto& f : expected)
      if (seen.count(f.name) == 0)
        return "acked record " + f.name + " is missing (" +
               std::to_string(want.size() - seen.size()) + " missing)";
  }
  return "";
}

std::string check_shard_totals(const std::vector<std::uint64_t>& totals,
                               std::uint64_t expected) {
  std::uint64_t sum = 0;
  for (std::uint64_t t : totals) sum += t;
  if (sum != expected)
    return "shard totals sum to " + std::to_string(sum) + ", want " +
           std::to_string(expected);
  return "";
}

std::pair<std::size_t, std::size_t> range_hits(
    const std::vector<FileId>& ids, const std::vector<FileId>& exhaustive) {
  std::size_t hit = 0;
  for (FileId id : ids)
    if (std::binary_search(exhaustive.begin(), exhaustive.end(), id)) ++hit;
  return {hit, exhaustive.size()};
}

std::size_t topk_hits(
    const std::vector<std::pair<double, FileId>>& hits,
    const std::vector<std::pair<double, FileId>>& exhaustive) {
  if (exhaustive.empty()) return 0;
  const double kth = exhaustive.back().first;
  std::size_t n = 0;
  for (const auto& h : hits)
    if (h.first <= kth || same_distance(h.first, kth)) ++n;
  return std::min(n, exhaustive.size());
}

}  // namespace perfbench
