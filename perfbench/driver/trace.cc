#include "trace.h"

#include <fstream>
#include <unordered_map>

namespace perfbench::trace {

namespace {

std::atomic<bool> g_recording{false};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
  uint64_t used_index = 0;  // bitmap of live thread indices
  struct RoleThread {
    Role role;
    clockid_t clk;
    int index;
  };
  std::vector<RoleThread> roles;
};
Registry& reg() {
  static Registry* r = new Registry();  // outlives every thread_local dtor
  return *r;
}

// Per-thread registration: a dense index (released at thread exit, so
// indices recycle across the phases' short-lived threads), the span
// buffer, and the CPU-attribution roles.
struct ThreadState {
  int index = -1;
  std::vector<Span>* spans = nullptr;
  uint8_t roles = 0;

  ThreadState() {
    Registry& r = reg();
    std::lock_guard<std::mutex> g(r.mu);
    for (int i = 0; i < kMaxThreads; ++i) {
      if (!(r.used_index >> i & 1)) {
        r.used_index |= 1ull << i;
        index = i;
        break;
      }
    }
    if (index < 0) std::abort();  // more live threads than slots
  }
  ~ThreadState() {
    Registry& r = reg();
    std::lock_guard<std::mutex> g(r.mu);
    r.used_index &= ~(1ull << index);
    std::erase_if(r.roles, [&](const Registry::RoleThread& t) {
      return t.index == index;
    });
  }
  ThreadState(const ThreadState&) = delete;
  ThreadState& operator=(const ThreadState&) = delete;
};
ThreadState& self() {
  thread_local ThreadState s;
  return s;
}

}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case kDriver: return "client";
    case kKv: return "kv";
    case kTable: return "store";
    default: return "?";
  }
}

void set_recording(bool on) { g_recording.store(on, std::memory_order_release); }
bool recording() { return g_recording.load(std::memory_order_relaxed); }

int thread_index() { return self().index; }

void record(uint64_t req, Layer layer, OpKind op, uint64_t t0, uint64_t t1) {
  if (!recording()) return;
  ThreadState& s = self();
  if (!s.spans) {
    auto buf = std::make_unique<std::vector<Span>>();
    buf->reserve(1 << 16);
    s.spans = buf.get();
    std::lock_guard<std::mutex> g(reg().mu);
    reg().buffers.push_back(std::move(buf));
  }
  const uint64_t d = t1 - t0;
  s.spans->push_back(Span{req, t0, static_cast<uint32_t>(d > UINT32_MAX ? UINT32_MAX : d),
                          layer, op, static_cast<uint16_t>(s.index)});
}

std::vector<Span> collect() {
  std::lock_guard<std::mutex> g(reg().mu);
  std::vector<Span> all;
  for (const auto& b : reg().buffers) all.insert(all.end(), b->begin(), b->end());
  return all;
}

void register_thread(Role role) {
  ThreadState& s = self();
  if (s.roles >> role & 1) return;
  s.roles |= static_cast<uint8_t>(1u << role);
  clockid_t clk;
  if (pthread_getcpuclockid(pthread_self(), &clk) != 0) return;
  std::lock_guard<std::mutex> g(reg().mu);
  reg().roles.push_back({role, clk, s.index});
}

uint64_t role_cpu_ns(Role role) {
  std::lock_guard<std::mutex> g(reg().mu);
  uint64_t sum = 0;
  for (const auto& t : reg().roles) {
    if (t.role == role) sum += clock_ns(t.clk);
  }
  return sum;
}

NvmCounts NvmCounts::operator-(const NvmCounts& o) const {
  NvmCounts d;
  d.read_blocks = read_blocks - o.read_blocks;
  d.stalled = stalled - o.stalled;
  d.write_lines = write_lines - o.write_lines;
  d.fences = fences - o.fences;
  d.hot_hits = hot_hits - o.hot_hits;
  d.ocf_filtered = ocf_filtered - o.ocf_filtered;
  d.ocf_false_pos = ocf_false_pos - o.ocf_false_pos;
  d.lock_waits = lock_waits - o.lock_waits;
  d.put_user_bytes = put_user_bytes - o.put_user_bytes;
  d.put_write_lines = put_write_lines - o.put_write_lines;
  return d;
}

NvmAccumulator::Probe NvmAccumulator::begin() {
  auto& c = hdnh::nvm::Stats::local();
  return Probe{&c, c.nvm_read_blocks, c.nvm_read_blocks_stalled,
               c.nvm_write_lines, c.fences, c.dram_hot_hits, c.ocf_filtered,
               c.ocf_false_positive, c.lock_waits};
}

void NvmAccumulator::end(const Probe& p, bool is_put, uint64_t user_bytes) {
  const auto& c = *p.c;
  Slot& s = slots_[static_cast<size_t>(thread_index())];
  auto bump = [](std::atomic<uint64_t>& a, uint64_t d) {
    a.store(a.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  };
  const uint64_t wl = c.nvm_write_lines - p.wl;
  bump(s.f[0], c.nvm_read_blocks - p.rb);
  bump(s.f[1], c.nvm_read_blocks_stalled - p.st);
  bump(s.f[2], wl);
  bump(s.f[3], c.fences - p.fe);
  bump(s.f[4], c.dram_hot_hits - p.hh);
  bump(s.f[5], c.ocf_filtered - p.of);
  bump(s.f[6], c.ocf_false_positive - p.fp);
  bump(s.f[7], c.lock_waits - p.lw);
  if (is_put) {
    bump(s.f[8], user_bytes);
    bump(s.f[9], wl);
  }
}

NvmCounts NvmAccumulator::total() const {
  NvmCounts t;
  uint64_t* dst[] = {&t.read_blocks,  &t.stalled,        &t.write_lines,
                     &t.fences,       &t.hot_hits,       &t.ocf_filtered,
                     &t.ocf_false_pos, &t.lock_waits,    &t.put_user_bytes,
                     &t.put_write_lines};
  for (const Slot& s : slots_) {
    for (size_t i = 0; i < 10; ++i) *dst[i] += s.f[i].load(std::memory_order_relaxed);
  }
  return t;
}

// ------------------------------------------------------------ TimedTable --

namespace {
template <typename Fn>
hdnh::Status table_span(OpKind op, Fn&& fn) {
  const uint64_t req = tl_req;
  if (!sampled(req) || !recording()) return fn();
  const uint64_t t0 = now_ns();
  hdnh::Status s = fn();
  record(req, kTable, op, t0, now_ns());
  return s;
}
}  // namespace

hdnh::Status TimedTable::insert_s(const hdnh::Key& k, const hdnh::Value& v) {
  return table_span(kSet, [&] { return inner_.insert_s(k, v); });
}
hdnh::Status TimedTable::search_s(const hdnh::Key& k, hdnh::Value* out) {
  return table_span(kGet, [&] { return inner_.search_s(k, out); });
}
hdnh::Status TimedTable::update_s(const hdnh::Key& k, const hdnh::Value& v) {
  return table_span(kSet, [&] { return inner_.update_s(k, v); });
}

// --------------------------------------------------------------- TimedKv --

template <typename Fn>
hdnh::Status TimedKv::timed(std::string_view key, OpKind op,
                            uint64_t user_bytes, Fn&& fn) {
  if (role_ != kRoleCount) register_thread(role_);
  // Ids are drawn even while off, so the two sides of a socket count the
  // same requests whatever slice they land in.
  const uint64_t saved = tl_req;
  uint64_t req = saved;
  if (req == kNoReq && ids_ && counting_.load(std::memory_order_relaxed)) {
    req = ids_->next(parse_key(key));
  }
  if (!enabled_.load(std::memory_order_relaxed)) return fn();
  tl_req = req;
  const NvmAccumulator::Probe probe = NvmAccumulator::begin();
  const bool keep = sampled(req) && recording();
  const uint64_t t0 = keep ? now_ns() : 0;
  hdnh::Status s = fn();
  if (keep) record(req, kKv, op, t0, now_ns());
  acc_.end(probe, op == kSet, user_bytes);
  tl_req = saved;
  return s;
}

hdnh::Status TimedKv::put(std::string_view key, std::string_view value) {
  return timed(key, kSet, key.size() + value.size(),
               [&] { return inner_.put(key, value); });
}
hdnh::Status TimedKv::insert(std::string_view key, std::string_view value) {
  return timed(key, kSet, key.size() + value.size(),
               [&] { return inner_.insert(key, value); });
}
hdnh::Status TimedKv::get(std::string_view key, std::string* out) {
  return timed(key, kGet, 0, [&] { return inner_.get(key, out); });
}
hdnh::Status TimedKv::erase(std::string_view key) {
  return timed(key, kSet, key.size(), [&] { return inner_.erase(key); });
}
size_t TimedKv::multiget(const std::string_view* keys, size_t n,
                         std::string* values, uint8_t* found) {
  return inner_.multiget(keys, n, values, found);
}

// -------------------------------------------------------------- analysis --

Breakdown analyze(const std::vector<Span>& spans) {
  struct Agg {
    uint64_t outer = 0, kv = 0, table = 0;
    uint8_t op = 0;
    bool has_outer = false, has_kv = false;
  };
  std::unordered_map<uint64_t, Agg> by_req;
  by_req.reserve(spans.size());
  for (const Span& s : spans) {
    Agg& a = by_req[s.req];
    switch (s.layer) {
      case kDriver:
        a.outer += s.dur;
        a.op = s.op;
        a.has_outer = true;
        break;
      case kKv:
        a.kv += s.dur;
        a.has_kv = true;
        break;
      case kTable:
        a.table += s.dur;
        break;
    }
  }
  Breakdown b;
  for (const auto& [req, a] : by_req) {
    if (!a.has_outer) continue;
    if (!a.has_kv) {
      ++b.unpaired;
      continue;
    }
    const int op = a.op;
    b.outer[op].record(a.outer);
    b.kv[op].record(a.kv);
    if (a.table) b.table[op].record(a.table);
    b.outer_self[op].record(a.outer > a.kv ? a.outer - a.kv : 0);
    b.kv_self[op].record(a.kv > a.table ? a.kv - a.table : 0);
    b.outer_sum[op] += static_cast<double>(a.outer);
    b.kv_sum[op] += static_cast<double>(a.kv);
    b.table_sum[op] += static_cast<double>(a.table);
    ++b.requests[op];
  }
  return b;
}

void dump_chrome(const std::vector<Span>& spans, const std::string& path,
                 size_t max_requests) {
  std::unordered_map<uint64_t, bool> keep;
  std::vector<const Span*> roots;
  for (const Span& s : spans) {
    if (s.layer == kDriver) roots.push_back(&s);
  }
  std::sort(roots.begin(), roots.end(),
            [](const Span* a, const Span* b) { return a->t0 < b->t0; });
  for (size_t i = 0; i < roots.size() && keep.size() < max_requests; ++i) {
    keep[roots[i]->req] = true;
  }
  std::ofstream out(path);
  if (!out) return;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  const uint64_t base = roots.empty() ? 0 : roots[0]->t0;
  for (const Span& s : spans) {
    if (!keep.count(s.req) || s.t0 < base) continue;
    out << (first ? "" : ",\n") << "{\"name\":\"" << layer_name(Layer(s.layer))
        << (s.op == kSet ? ".set" : ".get") << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.thread << ",\"ts\":" << static_cast<double>(s.t0 - base) / 1e3
        << ",\"dur\":" << static_cast<double>(s.dur) / 1e3
        << ",\"args\":{\"req\":" << s.req << "}}";
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace perfbench::trace
