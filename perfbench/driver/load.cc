#include "load.h"

#include <unistd.h>

#include <algorithm>
#include <deque>
#include <thread>

#include "net/client.h"
#include "net/resp.h"

namespace perfbench {

bool get_ok(const Oracle& o, uint32_t key, std::string_view value, size_t len,
            uint32_t acked_floor, std::string* why) {
  uint32_t ver = 0;
  if (!check_value(value, key, len, &ver)) {
    *why = "GET " + key_str(key) + " returned a value of another key or torn bytes";
    return false;
  }
  const uint32_t issued = o.issued[key].load(std::memory_order_acquire);
  if (ver > issued || ver < acked_floor) {
    *why = "GET " + key_str(key) + " returned version " + std::to_string(ver) +
           " outside [" + std::to_string(acked_floor) + ", " +
           std::to_string(issued) + "]";
    return false;
  }
  return true;
}

void kv_body(const LoadCtx& ctx, hdnh::KvStore& kv, uint32_t t,
             SliceRecorder& rec, PhaseCounters& pc) {
  const std::vector<Op>& ops = (*ctx.streams)[t];
  const uint32_t owners = static_cast<uint32_t>(ctx.streams->size());
  Oracle& o = *ctx.oracle;
  char kb[kKeyLen];
  std::string val, out, why;
  uint64_t req_seq = 0;
  for (size_t pos = 0;; ++pos) {
    const Op op = ops[pos % ops.size()];
    format_key(op.key, kb);
    const std::string_view key(kb, kKeyLen);
    uint64_t req = trace::kNoReq;
    if (ctx.traced) req = (static_cast<uint64_t>(t + 1) << 48) | req_seq++;
    trace::tl_req = req;
    uint64_t t0, t1;
    bool ok;
    if (op.set) {
      const uint32_t ver = o.issued[op.key].load(std::memory_order_relaxed) + 1;
      o.issued[op.key].store(ver, std::memory_order_release);
      format_value(op.key, ver, ctx.value_len, &val);
      t0 = now_ns();
      const hdnh::Status s = kv.put(key, val);
      t1 = now_ns();
      ok = s.ok();
      if (ok) {
        o.acked[op.key] = ver;
      } else {
        why = "SET " + std::string(key) + ": " + s.to_string();
      }
    } else {
      const uint32_t floor = op.key % owners == t ? o.acked[op.key] : 0;
      t0 = now_ns();
      const hdnh::Status s = kv.get(key, &out);
      t1 = now_ns();
      ok = s.ok() ? get_ok(o, op.key, out, ctx.value_len, floor, &why) : false;
      if (!s.ok()) why = "GET " + std::string(key) + ": " + s.to_string();
    }
    trace::tl_req = trace::kNoReq;
    if (trace::sampled(req)) {
      trace::record(req, trace::kDriver, op.set ? trace::kSet : trace::kGet, t0, t1);
    }
    ++pc.attempted;
    if (!ok) pc.fail(why);
    if (!rec.record(op.set, t1 - t0, t1)) return;
  }
}

hdnh::Status ReactorProbe::get(std::string_view key, std::string* out) {
  if (key.size() > 6 && key.compare(0, 6, "probe:") == 0) {
    std::lock_guard<std::mutex> g(mu_);
    seen_[std::string(key)] = pthread_self();
    return hdnh::Status::NotFound();
  }
  return inner_.get(key, out);
}

pthread_t ReactorProbe::served_by(const std::string& key) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = seen_.find(key);
  return it == seen_.end() ? pthread_t{} : it->second;
}

std::vector<hdnh::net::Client> connect_spread(uint16_t port, uint32_t n,
                                              ReactorProbe& probe) {
  std::vector<hdnh::net::Client> conns;
  std::vector<pthread_t> used;
  for (uint32_t i = 0; i < n; ++i) {
    for (int attempt = 0;; ++attempt) {
      hdnh::net::Client c;
      c.set_timeouts({5000, 30000, 30000});
      c.connect("127.0.0.1", port);
      const std::string key = "probe:" + std::to_string(i) + ":" + std::to_string(attempt);
      c.command({"GET", key});
      const pthread_t reactor = probe.served_by(key);
      const bool fresh = std::none_of(used.begin(), used.end(), [&](pthread_t u) {
        return pthread_equal(u, reactor);
      });
      if (fresh || attempt == 64) {
        used.push_back(reactor);
        conns.push_back(std::move(c));
        break;
      }
    }
  }
  return conns;
}

void net_body(const LoadCtx& ctx, std::vector<hdnh::net::Client>& conns,
              uint32_t first, uint32_t n, uint32_t depth, SliceRecorder& rec,
              PhaseCounters& pc, RespCapture* capture) {
  struct Inflight {
    uint64_t t0, req;
    uint32_t key, ver, floor;
    bool set;
  };
  struct Lane {
    hdnh::net::Client* c;
    uint32_t id;  // connection index = op stream = key owner
    size_t pos = 0;
    std::deque<Inflight> q;
  };
  const uint32_t owners = static_cast<uint32_t>(ctx.streams->size());
  Oracle& o = *ctx.oracle;
  if (ctx.traced) trace::register_thread(trace::kRoleDriver);
  std::vector<Lane> lanes;
  for (uint32_t j = first; j < first + n; ++j) lanes.push_back(Lane{&conns[j], j, 0, {}});
  std::string val, why;
  bool stop = false;
  auto issue = [&](Lane& l) {
    const std::vector<Op>& ops = (*ctx.streams)[l.id];
    const Op op = ops[l.pos++ % ops.size()];
    std::vector<std::string> args;
    Inflight f{0, trace::kNoReq, op.key, 0, 0, op.set};
    if (op.set) {
      f.ver = o.issued[op.key].load(std::memory_order_relaxed) + 1;
      o.issued[op.key].store(f.ver, std::memory_order_release);
      format_value(op.key, f.ver, ctx.value_len, &val);
      args = {"SET", key_str(op.key), val};
    } else {
      f.floor = op.key % owners == l.id ? o.acked[op.key] : 0;
      args = {"GET", key_str(op.key)};
    }
    if (capture && l.id == 0 && capture->requests.size() < capture->limit) {
      capture->requests.push_back(args);
    }
    l.c->pipeline(args);
    if (ctx.ids) f.req = ctx.ids->next(op.key);
    f.t0 = now_ns();
    l.q.push_back(f);
  };
  auto complete = [&](Lane& l) {
    const hdnh::net::RespValue v = l.c->read_reply();
    const uint64_t t1 = now_ns();
    const Inflight f = l.q.front();
    l.q.pop_front();
    ++pc.attempted;
    bool ok;
    if (f.set) {
      ok = v.type == hdnh::net::RespValue::Type::kSimple && v.str == "OK";
      if (ok) {
        o.acked[f.key] = f.ver;
      } else {
        why = "SET " + key_str(f.key) + " answered " + (v.str.empty() ? "nil" : v.str);
      }
    } else if (v.type == hdnh::net::RespValue::Type::kBulk) {
      ok = get_ok(o, f.key, v.str, ctx.value_len, f.floor, &why);
    } else {
      ok = false;
      why = "GET " + key_str(f.key) + (v.is_nil() ? " missed" : " answered " + v.str);
    }
    if (!ok) pc.fail(why);
    if (capture && l.id == 0 && capture->replies.size() < capture->limit) {
      capture->replies.push_back({f.set, f.set ? "OK" : v.str});
    }
    if (ctx.traced && trace::sampled(f.req)) {
      trace::record(f.req, trace::kDriver, f.set ? trace::kSet : trace::kGet, f.t0, t1);
    }
    if (!rec.record(f.set, t1 - f.t0, t1)) stop = true;
  };
  try {
    // Batches: queue `depth` requests on every lane and flush it, then
    // read every lane's replies.
    while (!stop) {
      for (Lane& l : lanes) {
        while (l.q.size() < depth) issue(l);
        l.c->flush();
      }
      for (Lane& l : lanes) {
        while (!l.q.empty()) complete(l);
      }
    }
  } catch (const std::exception& e) {
    for (const Lane& l : lanes) {
      pc.attempted += l.q.size();
      pc.failed += l.q.size();
    }
    pc.fail(std::string("connection: ") + e.what());
  }
}

void preload_kv(hdnh::KvStore& kv, uint64_t keys, size_t value_len,
                uint32_t threads, PhaseCounters* pc) {
  std::vector<PhaseCounters> per(threads);
  std::vector<std::thread> ws;
  for (uint32_t t = 0; t < threads; ++t) {
    ws.emplace_back([&, t] {
      std::string val;
      char kb[kKeyLen];
      for (uint64_t k = t; k < keys; k += threads) {
        format_key(static_cast<uint32_t>(k), kb);
        format_value(static_cast<uint32_t>(k), 1, value_len, &val);
        const hdnh::Status s = kv.insert(std::string_view(kb, kKeyLen), val);
        ++per[t].attempted;
        if (!s.ok()) per[t].fail("preload " + key_str(k) + ": " + s.to_string());
      }
    });
  }
  for (auto& w : ws) w.join();
  for (auto& p : per) {
    pc->attempted += p.attempted;
    pc->failed += p.failed;
    for (auto& n : p.notes) pc->notes.push_back(n);
  }
}

void preload_net(std::vector<hdnh::net::Client>& conns, uint64_t keys,
                 size_t value_len, PhaseCounters* pc) {
  const uint32_t threads = static_cast<uint32_t>(conns.size());
  std::vector<PhaseCounters> per(threads);
  std::vector<std::thread> ws;
  for (uint32_t t = 0; t < threads; ++t) {
    ws.emplace_back([&, t] {
      hdnh::net::Client& c = conns[t];
      try {
        std::string val;
        uint64_t inflight = 0;
        auto drain = [&] {
          c.flush();
          for (; inflight > 0; --inflight) {
            const hdnh::net::RespValue v = c.read_reply();
            ++per[t].attempted;
            if (v.type != hdnh::net::RespValue::Type::kSimple) {
              per[t].fail("preload SET answered " + v.str);
            }
          }
        };
        for (uint64_t k = t; k < keys; k += threads) {
          format_value(static_cast<uint32_t>(k), 1, value_len, &val);
          c.pipeline({"SET", key_str(static_cast<uint32_t>(k)), val});
          if (++inflight == 64) drain();
        }
        drain();
      } catch (const std::exception& e) {
        per[t].fail(std::string("preload connection: ") + e.what());
      }
    });
  }
  for (auto& w : ws) w.join();
  for (auto& p : per) {
    pc->attempted += p.attempted;
    pc->failed += p.failed;
    for (auto& n : p.notes) pc->notes.push_back(n);
  }
}

uint64_t verify_store(hdnh::KvStore& kv, const Oracle& o, size_t value_len,
                      uint32_t threads, std::vector<std::string>* notes) {
  std::vector<uint64_t> bad(threads, 0);
  std::vector<std::vector<std::string>> why(threads);
  std::vector<std::thread> ws;
  for (uint32_t t = 0; t < threads; ++t) {
    ws.emplace_back([&, t] {
      std::string out;
      uint32_t ver;
      for (uint64_t k = t; k < o.n; k += threads) {
        const std::string key = key_str(static_cast<uint32_t>(k));
        const hdnh::Status s = kv.get(key, &out);
        if (s.ok() && check_value(out, static_cast<uint32_t>(k), value_len, &ver) &&
            ver == o.acked[k]) {
          continue;
        }
        ++bad[t];
        if (why[t].size() < 4) {
          why[t].push_back("final state: " + key + " does not hold acked version " +
                           std::to_string(o.acked[k]));
        }
      }
    });
  }
  for (auto& w : ws) w.join();
  uint64_t total = 0;
  for (uint32_t t = 0; t < threads; ++t) {
    total += bad[t];
    for (auto& n : why[t]) notes->push_back(n);
  }
  return total;
}

void time_resp(const RespCapture& cap, double* parse_ns, double* encode_ns) {
  *parse_ns = *encode_ns = 0;
  if (cap.requests.empty() || cap.replies.empty()) return;
  std::string wire;
  for (const auto& args : cap.requests) hdnh::net::append_command(&wire, args);
  std::vector<double> parse_runs, encode_runs;
  std::vector<std::string> args;
  std::string out;
  uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const uint64_t t0 = now_ns();
    size_t off = 0, cmds = 0;
    while (off < wire.size()) {
      size_t used = 0;
      if (hdnh::net::parse_request(wire.data() + off, wire.size() - off, &used,
                                   &args) != hdnh::net::ParseResult::kOk) {
        break;
      }
      off += used;
      ++cmds;
      sink += args.size();
    }
    parse_runs.push_back(static_cast<double>(now_ns() - t0) /
                         static_cast<double>(cmds ? cmds : 1));
    const uint64_t t1 = now_ns();
    for (const auto& [is_set, payload] : cap.replies) {
      out.clear();
      if (is_set) {
        hdnh::net::append_simple(&out, payload);
      } else {
        hdnh::net::append_bulk(&out, payload);
      }
      sink += out.size();
    }
    encode_runs.push_back(static_cast<double>(now_ns() - t1) /
                          static_cast<double>(cap.replies.size()));
  }
  if (sink == 0) std::fprintf(stderr, "# resp replay parsed nothing\n");
  *parse_ns = median(parse_runs);
  *encode_ns = median(encode_runs);
}

double driver_ns_per_op(const StreamSpec& spec, uint64_t seed, size_t value_len) {
  StreamSpec s = spec;
  s.length = 1 << 18;
  const std::vector<Op> ops = make_stream(s, seed, 0);
  Oracle o(spec.keys);
  std::string val, why;
  char kb[kKeyLen];
  uint64_t sink = 0;
  const uint64_t t0 = now_ns();
  for (const Op& op : ops) {
    format_key(op.key, kb);
    format_value(op.key, 1, value_len, &val);
    if (!op.set) sink += get_ok(o, op.key, val, value_len, 0, &why);
    sink += static_cast<uint64_t>(kb[kKeyLen - 1]);
  }
  const uint64_t ns = now_ns() - t0;
  if (sink == 0) std::fprintf(stderr, "# driver cost loop did nothing\n");
  return static_cast<double>(ns) / static_cast<double>(ops.size());
}

}  // namespace perfbench

namespace perfbench {

Snap Snap::take() {
  Snap s;
  for (int r = 0; r < trace::kRoleCount; ++r) {
    s.cpu[r] = trace::role_cpu_ns(static_cast<trace::Role>(r));
  }
  s.process_cpu = process_cpu_ns();
  return s;
}

void subtract(hdnh::nvm::StatsSnapshot* d, const trace::NvmCounts& n) {
  d->nvm_read_blocks -= n.read_blocks;
  d->nvm_read_blocks_stalled -= n.stalled;
  d->nvm_write_lines -= n.write_lines;
  d->fences -= n.fences;
  d->dram_hot_hits -= n.hot_hits;
  d->ocf_filtered -= n.ocf_filtered;
  d->ocf_false_positive -= n.ocf_false_pos;
  d->lock_waits -= n.lock_waits;
}

void put_counter_metrics(const hdnh::nvm::StatsSnapshot& d,
                         const hdnh::nvm::NvmConfig& cfg, const PhaseOut& ph,
                         Result* r) {
  const double n = static_cast<double>(ph.counters.attempted ? ph.counters.attempted : 1);
  const double get_share =
      ph.stats.ops ? static_cast<double>(ph.stats.gets) / static_cast<double>(ph.stats.ops)
                   : 1.0;
  const double g = std::max(1.0, n * get_share);
  const double blocks = static_cast<double>(d.nvm_read_blocks);
  r->put("nvm.read_blocks_per_op", blocks / n);
  r->put("nvm.stalled_read_frac",
         blocks > 0 ? static_cast<double>(d.nvm_read_blocks_stalled) / blocks : 0.0);
  r->put("nvm.write_lines_per_op", static_cast<double>(d.nvm_write_lines) / n);
  r->put("nvm.fences_per_op", static_cast<double>(d.fences) / n);
  // The spin-wait the emulator charges for these counts: cold block reads,
  // persisted lines and fences at the configured AEP-like costs. An
  // emulator charge, not a device measurement.
  const double charge =
      (static_cast<double>(d.nvm_read_blocks_stalled) * cfg.read_ns_per_block +
       static_cast<double>(d.nvm_write_lines) * cfg.write_ns_per_line +
       static_cast<double>(d.fences) * cfg.fence_ns) *
      cfg.latency_scale;
  r->put("nvm.emulated_ns_per_op", charge / n);
  // Hot-table hits per store op: GETs, and the index lookups SETs make.
  r->put("hdnh.hot_hit_ratio", static_cast<double>(d.dram_hot_hits) / n);
  r->put("hdnh.ocf_filtered_per_get", static_cast<double>(d.ocf_filtered) / g);
  r->put("hdnh.ocf_false_pos_per_get",
         static_cast<double>(d.ocf_false_positive) / g);
  r->put("hdnh.lock_waits_per_op", static_cast<double>(d.lock_waits) / n);
}

void put_e2e(const PhaseOut& ph, double setup_s, double nvm_bytes_per_user_byte,
             Result* r) {
  r->put("throughput_kops", ph.stats.kops);
  r->put("get_p50_us", ph.stats.get_p50_us);
  r->put("get_p99_us", ph.stats.get_p99_us);
  r->put("set_p50_us", ph.stats.set_p50_us);
  r->put("set_p99_us", ph.stats.set_p99_us);
  r->put("setup_s", setup_s);
  r->put("nvm_bytes_per_user_byte", nvm_bytes_per_user_byte);
  r->put("rss_mb", peak_rss_mb());
  std::string series;
  for (double k : ph.stats.slice_kops) {
    series += ' ';
    series += std::to_string(static_cast<int>(k));
  }
  r->info.push_back("slice kops:" + series);
  r->info.push_back("latency samples: gets=" + std::to_string(ph.stats.gets) +
                    " sets=" + std::to_string(ph.stats.sets) + " over " +
                    std::to_string(ph.stats.seconds) + " s");
  char steal[96];
  std::snprintf(steal, sizeof steal, "host steal: %.4f of guest CPU time in the timed interval",
                ph.host_steal_frac);
  r->info.push_back(steal);
}

void toggle_tracing(int boundary, int slices, uint64_t seed, trace::TimedKv* kv) {
  const bool on = boundary < slices && traced_slice(boundary, seed);
  kv->set_enabled(on);
  trace::set_recording(on);
}

void put_overhead(const PhaseOut& ph, uint64_t seed, Result* r) {
  const double plain = median_of_slices(ph.stats.slice_kops, false, seed);
  const double traced = median_of_slices(ph.stats.slice_kops, true, seed);
  r->put("trace.overhead_frac", plain > 0 ? 1.0 - traced / plain : 0.0);
  r->info.push_back("kops: untraced slices " + std::to_string(plain) +
                    ", traced slices " + std::to_string(traced));
}

void put_cpu(const PhaseOut& ph, const Snap& c0, const Snap& c1,
             double driver_ns_per_op, Result* r) {
  const double ops = static_cast<double>(ph.stats.ops ? ph.stats.ops : 1);
  auto us = [&](trace::Role role) {
    return static_cast<double>(c1.cpu[role] - c0.cpu[role]) / ops / 1e3;
  };
  const double srv = us(trace::kRoleServer), cli = us(trace::kRoleDriver),
               rep = us(trace::kRoleReplica);
  const double all = static_cast<double>(c1.process_cpu - c0.process_cpu) / ops / 1e3;
  r->put("server.cpu_us_per_op", srv);
  // The client threads also run the driver (op generation, value
  // formatting and checks); that share is reported as driver.gen_ns_per_op
  // and taken out here.
  r->put("client.cpu_us_per_op", cli - driver_ns_per_op / 1e3);
  r->info.push_back("cpu us/op: server " + std::to_string(srv) + ", client " +
                    std::to_string(cli) + ", replica applier " + std::to_string(rep) +
                    ", other threads " + std::to_string(all - srv - cli - rep));
}

}  // namespace perfbench
