// Tracing for the traced (--trace 1) runs, built only from the store's
// public surfaces:
//
//   * Span records (request id, layer, op, start, duration) kept in
//     per-thread memory and merged after the run. Requests are sampled by
//     id (1 in kSampleEvery) so a traced run stores a bounded number of
//     spans; every layer of a sampled request is recorded.
//   * TimedKv / TimedTable decorators over the KvStore and HashTable
//     objects handed to net::Server and FixedTableKv. They forward every
//     call, including multiget and shard_admin, so the store behaves as it
//     does untraced, and also accumulate the calling thread's nvm::Stats
//     deltas per call — which is how an in-process replica's NVM traffic
//     is separated from the primary's.
//   * A per-role thread registry for CPU attribution (driver, server
//     reactors, replica applier).
//
// Request ids: an in-process caller sets tl_req before calling into the
// decorated store. Across the socket the server-side decorator cannot see
// the client's id, so both sides derive it as (key id, per-key occurrence
// count): the n-th request for key k on the client pairs with the n-th
// execution for k on the server. The pairing is exact unless two
// connections have the same key in flight at once, in which case the two
// requests may swap partners.
#pragma once

#include <array>
#include <memory>
#include <mutex>

#include "api/hash_table.h"
#include "api/kv_store.h"
#include "api/shard_admin.h"
#include "bench.h"
#include "nvm/stats.h"

namespace perfbench::trace {

constexpr uint64_t kSampleEvery = 8;
constexpr uint64_t kNoReq = ~0ull;

enum Layer : uint8_t { kDriver = 0, kKv, kTable };
enum OpKind : uint8_t { kGet = 0, kSet };
const char* layer_name(Layer l);

struct Span {
  uint64_t req;
  uint64_t t0;
  uint32_t dur;
  uint8_t layer;
  uint8_t op;
  uint16_t thread;
};

inline bool sampled(uint64_t req) {
  return req != kNoReq && mix64(req) % kSampleEvery == 0;
}

// The request id the current thread is executing on behalf of (in-process
// callers, and the outer decorator for the inner one).
inline thread_local uint64_t tl_req = kNoReq;

// Recording switch: spans are only kept while on.
void set_recording(bool on);
bool recording();
void record(uint64_t req, Layer layer, OpKind op, uint64_t t0, uint64_t t1);
// All recorded spans (call after the recording threads are quiescent).
std::vector<Span> collect();

// Small dense index of the calling thread (0..kMaxThreads-1).
constexpr int kMaxThreads = 64;
int thread_index();

// (key id, occurrence) request ids; one instance per side of the socket.
class ReqIds {
 public:
  explicit ReqIds(uint64_t keys) : occ_(new std::atomic<uint32_t>[keys]), n_(keys) {
    for (uint64_t i = 0; i < keys; ++i) occ_[i].store(0);
  }
  uint64_t next(uint32_t key) {
    if (key >= n_) return kNoReq;
    const uint64_t o = occ_[key].fetch_add(1, std::memory_order_relaxed);
    return (static_cast<uint64_t>(key) << 32) | (o & 0xffffffffu);
  }

 private:
  std::unique_ptr<std::atomic<uint32_t>[]> occ_;
  uint64_t n_;
};

// ---- CPU attribution ----
enum Role : uint8_t { kRoleDriver = 0, kRoleServer, kRoleReplica, kRoleCount };
// Registers the calling thread under `role` (idempotent per thread).
void register_thread(Role role);
// CPU time so far of every live thread registered under `role`.
uint64_t role_cpu_ns(Role role);

// ---- NVM counter deltas accumulated by a decorator ----
struct NvmCounts {
  uint64_t read_blocks = 0, stalled = 0, write_lines = 0, fences = 0;
  uint64_t hot_hits = 0, ocf_filtered = 0, ocf_false_pos = 0, lock_waits = 0;
  uint64_t put_user_bytes = 0, put_write_lines = 0;
  NvmCounts operator-(const NvmCounts& o) const;
};

// Per-thread accumulation slots, summed on read (no shared cache line on
// the hot path).
class NvmAccumulator {
 public:
  struct Probe {
    hdnh::nvm::Stats::Counters* c;
    uint64_t rb, st, wl, fe, hh, of, fp, lw;
  };
  static Probe begin();
  void end(const Probe& p, bool is_put, uint64_t user_bytes);
  NvmCounts total() const;

 private:
  // One writer per slot (the thread owning that index): plain relaxed
  // load+store, no read-modify-write on the hot path.
  struct alignas(64) Slot {
    std::atomic<uint64_t> f[10] = {};
  };
  std::array<Slot, kMaxThreads> slots_{};
};

// ---- decorators ----

class TimedTable final : public hdnh::HashTable, public hdnh::ShardAdmin {
 public:
  explicit TimedTable(hdnh::HashTable& inner)
      : inner_(inner), admin_(dynamic_cast<hdnh::ShardAdmin*>(&inner)) {}

  bool insert(const hdnh::Key& k, const hdnh::Value& v) override {
    return insert_s(k, v).ok();
  }
  bool search(const hdnh::Key& k, hdnh::Value* out) override {
    return search_s(k, out).ok();
  }
  bool update(const hdnh::Key& k, const hdnh::Value& v) override {
    return update_s(k, v).ok();
  }
  bool erase(const hdnh::Key& k) override { return inner_.erase(k); }
  hdnh::Status insert_s(const hdnh::Key& k, const hdnh::Value& v) override;
  hdnh::Status search_s(const hdnh::Key& k, hdnh::Value* out) override;
  hdnh::Status update_s(const hdnh::Key& k, const hdnh::Value& v) override;
  hdnh::Status erase_s(const hdnh::Key& k) override { return inner_.erase_s(k); }
  size_t multiget(const hdnh::Key* keys, size_t n, hdnh::Value* values,
                  bool* found) override {
    return inner_.multiget(keys, n, values, found);
  }
  uint64_t size() const override { return inner_.size(); }
  double load_factor() const override { return inner_.load_factor(); }
  const char* name() const override { return inner_.name(); }

  Directory shard_directory() const override {
    return admin_ ? admin_->shard_directory() : Directory{};
  }
  hdnh::Status split_shard(uint32_t shard) override {
    return admin_ ? admin_->split_shard(shard)
                  : hdnh::Status::InvalidArgument("not sharded");
  }

 private:
  hdnh::HashTable& inner_;
  hdnh::ShardAdmin* admin_;
};

class TimedKv final : public hdnh::KvStore {
 public:
  // `ids` non-null: derive request ids from keys (server side of a
  // socket). `role`: register calling threads for CPU attribution.
  TimedKv(hdnh::KvStore& inner, ReqIds* ids, Role role)
      : inner_(inner), ids_(ids), role_(role) {}

  hdnh::ShardAdmin* shard_admin() override { return inner_.shard_admin(); }
  const char* name() const override { return inner_.name(); }
  uint64_t size() const override { return inner_.size(); }
  double load_factor() const override { return inner_.load_factor(); }
  size_t max_key_len() const override { return inner_.max_key_len(); }
  size_t max_value_len() const override { return inner_.max_value_len(); }
  hdnh::Status put(std::string_view key, std::string_view value) override;
  hdnh::Status insert(std::string_view key, std::string_view value) override;
  hdnh::Status get(std::string_view key, std::string* out) override;
  hdnh::Status erase(std::string_view key) override;
  size_t multiget(const std::string_view* keys, size_t n, std::string* values,
                  uint8_t* found) override;

  NvmCounts nvm() const { return acc_.total(); }
  // Off: every call forwards with no timing or accounting (the untraced
  // slices of a traced run). Threads are still registered for CPU.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  // Server side: start drawing (key, occurrence) ids. Turned on while no
  // request is in flight, at the moment the client side starts counting.
  void set_counting(bool on) { counting_.store(on, std::memory_order_relaxed); }

 private:
  template <typename Fn>
  hdnh::Status timed(std::string_view key, OpKind op, uint64_t user_bytes,
                     Fn&& fn);

  hdnh::KvStore& inner_;
  ReqIds* ids_;
  Role role_;
  std::atomic<bool> enabled_{true};
  std::atomic<bool> counting_{true};
  NvmAccumulator acc_;
};

// ---- span analysis ----

// Per-request layer breakdown of the sampled requests: `outer` is the
// driver/client span, `kv` the summed KvStore spans, `table` the summed
// HashTable spans. Self times are span minus its children.
struct Breakdown {
  LatHist outer[2], kv[2], table[2];
  LatHist outer_self[2], kv_self[2];
  double outer_sum[2] = {0, 0}, kv_sum[2] = {0, 0}, table_sum[2] = {0, 0};
  uint64_t requests[2] = {0, 0};
  uint64_t unpaired = 0;  // outer spans with no server-side partner
};
Breakdown analyze(const std::vector<Span>& spans);

// Writes the first `max_requests` sampled requests as a Chrome trace
// (chrome://tracing, Perfetto) to `path`.
void dump_chrome(const std::vector<Span>& spans, const std::string& path,
                 size_t max_requests);

}  // namespace perfbench::trace
