#include "tracer.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_op{0};
const auto g_epoch = std::chrono::steady_clock::now();

struct ThreadBuffer {
  std::uint64_t thread_index = 0;
  std::uint64_t next_local = 0;
  std::vector<SpanRecord> done;
  std::vector<SpanRecord> open;  ///< stack of unfinished spans
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

thread_local ThreadBuffer* t_buf = nullptr;
thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_op = 0;

ThreadBuffer& buffer() {
  if (t_buf == nullptr) {
    auto b = std::make_unique<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    b->thread_index = g_registry.size() + 1;
    t_buf = b.get();
    g_registry.push_back(std::move(b));
  }
  return *t_buf;
}

}  // namespace

void Tracer::enable(bool on) { g_enabled.store(on); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

void Tracer::set_op(std::uint64_t op) { t_op = op; }
std::uint64_t Tracer::next_op() { return g_next_op.fetch_add(1) + 1; }

std::uint64_t Tracer::open(const char* name, std::uint64_t* saved_parent) {
  ThreadBuffer& b = buffer();
  SpanRecord r;
  r.name = name;
  r.id = (b.thread_index << 40) | ++b.next_local;
  r.parent = t_parent;
  r.op = t_op;
  *saved_parent = t_parent;
  t_parent = r.id;
  b.open.push_back(r);
  b.open.back().start_ns = now_ns();
  return r.id;
}

void Tracer::close(std::uint64_t id, std::uint64_t saved_parent,
                   std::uint64_t bytes) {
  const std::int64_t end = now_ns();
  ThreadBuffer& b = buffer();
  // Spans nest strictly on one thread, so the innermost open one is ours.
  if (!b.open.empty() && b.open.back().id == id) {
    SpanRecord r = b.open.back();
    b.open.pop_back();
    r.end_ns = end;
    r.bytes = bytes;
    b.done.push_back(r);
  }
  t_parent = saved_parent;
}

std::vector<SpanRecord> Tracer::collect() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<SpanRecord> all;
  for (const auto& b : g_registry)
    all.insert(all.end(), b->done.begin(), b->done.end());
  return all;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& b : g_registry) b->done.clear();
}

std::map<std::string, SpanTotals> Tracer::totals(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, double> child_us;
  for (const auto& s : spans)
    if (s.parent != 0)
      child_us[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  std::map<std::string, SpanTotals> out;
  for (const auto& s : spans) {
    SpanTotals& t = out[s.name];
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    ++t.count;
    t.total_us += us;
    const auto it = child_us.find(s.id);
    t.self_us += us - (it == child_us.end() ? 0.0 : it->second);
  }
  return out;
}

bool Tracer::dump(const std::vector<SpanRecord>& spans,
                  const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,id,parent,op,start_ns,end_ns,bytes\n");
  for (const auto& s : spans)
    std::fprintf(f, "%s,%llu,%llu,%llu,%lld,%lld,%llu\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.bytes));
  return std::fclose(f) == 0;
}

}  // namespace perfbench
