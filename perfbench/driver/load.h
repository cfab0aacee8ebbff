// Load generation shared by the workloads: the in-process and the RESP
// closed-loop bodies, preloads, the post-run oracle sweep, and the RESP
// codec replay.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/kv_store.h"
#include "nvm/config.h"
#include "nvm/stats.h"
#include "bench.h"
#include "net/client.h"
#include "trace.h"

namespace perfbench {

// What one worker drives: its op stream (replayed cyclically from the
// start), the oracle, the value size, and — in traced phases — where its
// client-side spans get their request ids.
struct LoadCtx {
  const std::vector<std::vector<Op>>* streams = nullptr;
  Oracle* oracle = nullptr;
  size_t value_len = 14;
  bool traced = false;           // record driver/client spans
  trace::ReqIds* ids = nullptr;  // net: (key, occurrence) ids
};

// GET check shared by every path: the value must belong to `key`, carry a
// version no newer than the owner has issued and, for the owner's own
// keys, no older than it had acknowledged when the GET was sent.
bool get_ok(const Oracle& o, uint32_t key, std::string_view value, size_t len,
            uint32_t acked_floor, std::string* why);

// In-process body: synchronous KvStore calls from worker t.
void kv_body(const LoadCtx& ctx, hdnh::KvStore& kv, uint32_t t,
             SliceRecorder& rec, PhaseCounters& pc);

// Forwarding KvStore that reveals the threads executing against it. It
// answers GETs of "probe:..." keys itself and remembers the thread that
// served each one, so the driver sees which reactor a connection landed on.
class ReactorProbe final : public hdnh::KvStore {
 public:
  explicit ReactorProbe(hdnh::KvStore& inner) : inner_(inner) {}
  hdnh::ShardAdmin* shard_admin() override { return inner_.shard_admin(); }
  const char* name() const override { return inner_.name(); }
  uint64_t size() const override { return inner_.size(); }
  double load_factor() const override { return inner_.load_factor(); }
  size_t max_key_len() const override { return inner_.max_key_len(); }
  size_t max_value_len() const override { return inner_.max_value_len(); }
  hdnh::Status put(std::string_view k, std::string_view v) override {
    return inner_.put(k, v);
  }
  hdnh::Status insert(std::string_view k, std::string_view v) override {
    return inner_.insert(k, v);
  }
  hdnh::Status get(std::string_view key, std::string* out) override;
  hdnh::Status erase(std::string_view k) override { return inner_.erase(k); }
  size_t multiget(const std::string_view* keys, size_t n, std::string* values,
                  uint8_t* found) override {
    return inner_.multiget(keys, n, values, found);
  }
  // Thread that served GET `key`, or 0 if none did.
  pthread_t served_by(const std::string& key);

 private:
  hdnh::KvStore& inner_;
  std::mutex mu_;
  std::map<std::string, pthread_t> seen_;
};

// Opens `n` connections, each on a different reactor (as far as the
// server has reactors): a connection that lands on a reactor already in
// use is closed and reopened. Left to the accept race, two connections
// can share one reactor while the other idles. No thread is pinned to a
// CPU: on a shared host a pinned thread cannot move off a CPU that
// something else is using, and pinned runs swung far more than unpinned
// ones.
std::vector<hdnh::net::Client> connect_spread(uint16_t port, uint32_t n,
                                              ReactorProbe& probe);

// RESP body: the calling worker drives connections conns[first .. first +
// n), each with its own op stream (connection j replays stream j and owns
// the keys it SETs), in fixed batches: it queues `depth` requests on every
// connection, flushes each once, then reads every reply in order. A batch
// costs each side one send and one wakeup instead of one per request, so
// the figures follow the work done per request rather than how quickly a
// shared host wakes a sleeping CPU. When `capture` is non-null the first
// requests and replies of connection 0 are kept for the codec replay.
struct RespCapture {
  std::vector<std::vector<std::string>> requests;
  std::vector<std::pair<bool, std::string>> replies;  // (is SET, payload)
  size_t limit = 20000;
};
void net_body(const LoadCtx& ctx, std::vector<hdnh::net::Client>& conns,
              uint32_t first, uint32_t n, uint32_t depth, SliceRecorder& rec,
              PhaseCounters& pc, RespCapture* capture);

// Loads version 1 of every key, `threads` ways in-process.
void preload_kv(hdnh::KvStore& kv, uint64_t keys, size_t value_len,
                uint32_t threads, PhaseCounters* pc);
// Same over the wire, one pipelined connection per thread.
void preload_net(std::vector<hdnh::net::Client>& conns, uint64_t keys,
                 size_t value_len, PhaseCounters* pc);

// After a run: every key must hold its owner's last acknowledged version.
// Returns the number of keys that do not.
uint64_t verify_store(hdnh::KvStore& kv, const Oracle& o, size_t value_len,
                      uint32_t threads, std::vector<std::string>* notes);

// net::parse_request ns per command over the captured request bytes, and
// append_* ns per reply over the captured replies.
void time_resp(const RespCapture& cap, double* parse_ns, double* encode_ns);

// The driver's own cost per op inside the timed loop, with no store
// underneath: formatting the key and value and checking the reply's value.
// (Op streams are generated before any timed interval.)
double driver_ns_per_op(const StreamSpec& spec, uint64_t seed, size_t value_len);

// CPU snapshot taken at a recorded interval's boundaries, per role.
struct Snap {
  uint64_t cpu[trace::kRoleCount] = {};
  uint64_t process_cpu = 0;
  static Snap take();
};

// Emits the nvm.* and hdnh.* counter metrics of phase `ph` from `d`, its
// nvm::Stats delta with any in-process replica's share already subtracted.
// nvm::Stats::snapshot() reads other threads' plain counters, so the delta
// is taken at quiescent points — just before the phase and after its
// workers joined — and divided by every op of the phase, warm-up included.
void put_counter_metrics(const hdnh::nvm::StatsSnapshot& d,
                         const hdnh::nvm::NvmConfig& cfg, const PhaseOut& ph,
                         Result* r);
// Subtracts a decorator's accumulated counters (an in-process replica's
// traffic) from a global delta.
void subtract(hdnh::nvm::StatsSnapshot* d, const trace::NvmCounts& n);

// The end-to-end metrics of an untraced run (peak RSS read here), plus
// info lines with the per-slice throughput and the latency sample counts.
void put_e2e(const PhaseOut& ph, double setup_s, double nvm_bytes_per_user_byte,
             Result* r);

// Slices of a traced phase: an even count, at least two pairs.
inline int traced_slices(int seconds) { return std::max(4, seconds + seconds % 2); }
// Slice-boundary hook of a traced phase: turns span recording and the
// decorator on for the slice starting at `boundary` when traced_slice()
// picks it, off otherwise and after the last.
void toggle_tracing(int boundary, int slices, uint64_t seed, trace::TimedKv* kv);
// trace.overhead_frac from the traced and untraced slices' throughputs.
void put_overhead(const PhaseOut& ph, uint64_t seed, Result* r);
// server/client CPU per op over a phase's recorded slices (the client's
// net of the driver's own cost), plus an info line splitting out the
// replica applier and everything else.
void put_cpu(const PhaseOut& ph, const Snap& c0, const Snap& c1,
             double driver_ns_per_op, Result* r);

}  // namespace perfbench
