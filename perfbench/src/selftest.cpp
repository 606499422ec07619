// The benchmark's own test. First it shows that every correctness check
// can fail: each checker gets a right answer (which it must accept) and
// wrong ones (which it must reject). Then it takes all three workloads to
// their end at tiny sizes and expects every check to pass.
//
// Usage: perfbench_selftest STATE_DIR
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

using namespace perfbench;
using smartstore::metadata::Attr;
using smartstore::metadata::AttrSubset;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void accepts(const std::string& reason, const std::string& what) {
  expect(reason.empty(), what + " is accepted" +
                             (reason.empty() ? "" : " (got: " + reason + ")"));
}

void rejects(const std::string& reason, const std::string& what) {
  expect(!reason.empty(), what + " is rejected" +
                              (reason.empty() ? "" : ": " + reason));
}

FileMetadata rec(FileId id, double size, double mtime) {
  FileMetadata f;
  f.id = id;
  f.name = "/sub0/u000/app000/f" + std::to_string(id) + ".dat";
  f.set_attr(Attr::kFileSize, size);
  f.set_attr(Attr::kModificationTime, mtime);
  return f;
}

void checker_tests() {
  const std::vector<FileMetadata> files = {
      rec(1, 10, 100), rec(2, 20, 200), rec(3, 30, 300),
      rec(4, 40, 400), rec(5, 50, 500), rec(6, 60, 600)};
  const RecordIndex index = index_by_id(files);
  const Lookup known = lookup_in(index);
  const AttrSubset dims({Attr::kFileSize, Attr::kModificationTime});

  // ---- range --------------------------------------------------------------
  RangeQuery box;
  box.dims = dims;
  box.lo = {15, 150};
  box.hi = {45, 450};
  const std::vector<FileId> want = exhaustive_range(files, box);
  expect(want == std::vector<FileId>({2, 3, 4}), "exhaustive range scan");
  accepts(check_range_sound(want, box, known), "a sound range answer");
  accepts(check_range_exact({4, 2, 3}, want), "an exact range answer");
  rejects(check_range_sound({2, 5}, box, known), "a range id outside the box");
  rejects(check_range_sound({2, 2}, box, known), "a duplicated range id");
  rejects(check_range_sound({99}, box, known), "an unknown range id");
  rejects(check_range_exact({2, 3}, want), "a dropped range id");
  rejects(check_range_exact({2, 3, 4, 5}, want), "an extra range id");

  // ---- top-k --------------------------------------------------------------
  const Standardization st = Standardization::fit(files);
  TopKQuery q;
  q.dims = dims;
  q.point = {21, 210};
  q.k = 3;
  const auto best = exhaustive_topk(files, st, q);
  expect(best.size() == 3 && best[0].second == 2, "exhaustive top-k scan");
  const DistanceFn dist = [&](const FileMetadata& f) { return st.dist2(f, q); };
  accepts(check_topk_sound(best, 3, dist, known, best), "a sound top-k answer");
  accepts(check_topk_exact(best, best), "an exact top-k answer");
  auto wrong_dist = best;
  wrong_dist[1].first *= 1.5;
  rejects(check_topk_sound(wrong_dist, 3, dist, known, best),
          "a wrong top-k distance");
  auto unsorted = best;
  std::swap(unsorted[0], unsorted[2]);
  rejects(check_topk_sound(unsorted, 3, dist, known, best),
          "unsorted top-k hits");
  auto short_answer = best;
  short_answer.pop_back();
  rejects(check_topk_sound(short_answer, 3, dist, known, best),
          "a top-k answer with too few hits");
  // A far record with its true distance is sound, but it is not the
  // exhaustive answer; a distance below the exhaustive one is impossible.
  auto far = best;
  far[2] = {dist(files[5]), 6};
  accepts(check_topk_sound(far, 3, dist, known, best),
          "a worse but honest top-k hit");
  rejects(check_topk_exact(far, best), "a missed top-k neighbour");
  auto beats = best;
  beats[0].first = best[0].first / 2;
  rejects(check_topk_sound(beats, 3,
                           [&](const FileMetadata& f) {
                             return f.id == beats[0].second ? beats[0].first
                                                            : dist(f);
                           },
                           known, best),
          "a top-k distance beating the exhaustive one");

  // ---- point --------------------------------------------------------------
  accepts(check_point(true, 2, 2, "x"), "a point hit with the right id");
  accepts(check_point(false, 0, 0, "x"), "an absent name not found");
  rejects(check_point(true, 3, 2, "x"), "a point hit with the wrong id");
  rejects(check_point(true, 3, 0, "x"), "an absent name found");
  rejects(check_point(false, 0, 2, "x"), "an acked name not found");

  // ---- recovery dump ------------------------------------------------------
  accepts(check_dump(files, files), "a complete dump");
  std::vector<FileMetadata> lost(files.begin(), files.end() - 1);
  rejects(check_dump(lost, files), "an acked put missing after recovery");
  std::vector<FileMetadata> stale = files;
  stale[0].set_attr(Attr::kFileSize, 11);
  rejects(check_dump(stale, files), "stale attributes after recovery");
  std::vector<FileMetadata> resurrected = files;
  resurrected.push_back(rec(7, 70, 700));
  rejects(check_dump(resurrected, files), "a deleted record after recovery");

  // ---- shard totals -------------------------------------------------------
  accepts(check_shard_totals({2, 2, 1, 1}, 6), "agreeing shard totals");
  rejects(check_shard_totals({2, 2, 1, 2}, 6), "disagreeing shard totals");

  // ---- recall -------------------------------------------------------------
  expect(range_hits({2, 3}, want) == std::pair<std::size_t, std::size_t>(2, 3),
         "range recall counts");
  expect(topk_hits(far, best) == 2, "top-k recall counts");
}

void workload_tests(const std::string& state_dir) {
  for (const char* w : {"ingest", "query", "service"}) {
    for (bool trace : {false, true}) {
      RunConfig cfg;
      cfg.workload = w;
      cfg.seed = 3;
      cfg.seconds = 0.3;
      cfg.trace = trace;
      cfg.tiny = true;
      cfg.state_dir = state_dir + "/" + w;
      Tracer::clear();
      Tracer::enable(trace);
      RunResult r = std::string(w) == "ingest" ? run_ingest(cfg)
                    : std::string(w) == "query" ? run_query(cfg)
                                                : run_service(cfg);
      Tracer::enable(false);
      expect(r.correct && r.failed == 0 && r.attempted > 0,
             std::string("tiny ") + w + (trace ? " (traced)" : "") +
                 " runs to its end with every check passing" +
                 (r.correct ? "" : ": " + r.first_error));
      if (trace)
        expect(r.per_layer.size() == per_layer_names().size(),
               std::string("tiny ") + w + " reports every per-layer metric");
      reset_dir(cfg.state_dir);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest STATE_DIR\n");
    return 2;
  }
  checker_tests();
  workload_tests(argv[1]);
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
