// lzssd benchmark harness.
//
// One closed-loop client (one request in flight) drives an in-process
// server::Service built with ServiceConfig defaults, the way lzss_client and
// the embedded logger call lzssd. Every reply is checked: zlib COMPRESS
// replies are inflated by the system zlib, and DECOMPRESS / LOG_READ replies
// are compared byte for byte with the original payload. A reply identical
// to one the oracle already passed for the same input is accepted by
// memcmp.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same calls
// untraced, then traced (the service's TraceRing plus spans recorded here
// around direct calls into each layer's public functions), and prints the
// per-layer ledger. perfbench/README.md documents the workloads and metrics.
#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>
#include <zlib.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "common/prng.hpp"
#include "container/codec.hpp"
#include "container/format.hpp"
#include "deflate/container.hpp"
#include "deflate/inflate.hpp"
#include "hw/compressor.hpp"
#include "lzss/mf_encoder.hpp"
#include "lzss/simd_compare.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/multi_engine.hpp"
#include "server/frame.hpp"
#include "server/service.hpp"
#include "server/tcp.hpp"
#include "store/log_store.hpp"
#include "workloads/corpus.hpp"

#ifndef LZSSD_BENCH_BUILD_TYPE
#define LZSSD_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace lzss;
using Clock = std::chrono::steady_clock;
using Bytes = std::vector<std::uint8_t>;
using server::Opcode;
using server::RequestFrame;
using server::ResponseFrame;
using server::Status;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the whole process (all threads), in microseconds.
double process_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) * 1e-3;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t x = seed ^ (tag * 0x9E3779B97F4A7C15ull);
  return rng::splitmix64(x);
}

// ---------------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json lists the same names; `--list-metrics`
// prints this table so `run.py --selftest` can compare the two.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"throughput_mb_s", "MB/s"}, {"req_per_s", "1/s"},         {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},    {"cpu_ns_per_byte", "ns/B"},  {"compressed_ratio", "ratio"},
    {"sim_mb_s", "MB/s"},        {"setup_s", "s"},             {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"hw.compress_mb_s", "MB/s"},
    {"hw.cycles_per_byte", "cycles/B"},
    {"hw.cycles_per_byte.waiting", "cycles/B"},
    {"hw.cycles_per_byte.fetching", "cycles/B"},
    {"hw.cycles_per_byte.matching", "cycles/B"},
    {"hw.cycles_per_byte.output", "cycles/B"},
    {"hw.cycles_per_byte.updating", "cycles/B"},
    {"hw.cycles_per_byte.rotating", "cycles/B"},
    {"lzss.encode_mb_s", "MB/s"},
    {"lzss.probes_per_byte", "probes/B"},
    {"lzss.compare_bytes_per_byte", "B/B"},
    {"deflate.encode_mb_s", "MB/s"},
    {"deflate.inflate_mb_s", "MB/s"},
    {"common.adler32_mb_s", "MB/s"},
    {"common.crc32_mb_s", "MB/s"},
    {"server.frame.encode_us", "us"},
    {"server.frame.parse_us", "us"},
    {"server.service.queue_wait_us_p50", "us"},
    {"server.service.worker_busy_share", "ratio"},
    {"server.tcp.overhead_us_p50", "us"},
    {"container.encode_block_mb_s", "MB/s"},
    {"container.decode_block_mb_s", "MB/s"},
    {"parallel.multi_engine_mb_s", "MB/s"},
    {"parallel.engine_imbalance", "ratio"},
    {"store.append_us_p50", "us"},
    {"store.append_us_p90", "us"},
    {"store.read_us_p50", "us"},
    {"store.fsync_count", "count"},
    {"store.fsync_us_p50", "us"},
    {"store.record_ratio", "ratio"},
    {"store.reopen_ms", "ms"},
    {"closure.unaccounted_share", "ratio"},
    {"obs.trace_overhead_pct", "%"},
};

bool valid_metric_name(std::string_view n) {
  if (n.empty() || n.size() > 64 || !std::isalnum(static_cast<unsigned char>(n[0]))) return false;
  return std::all_of(n.begin(), n.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
  });
}

// ---------------------------------------------------------------------------
// Workloads and their inputs. The corpus documents are fixed (generated
// from constant seeds, as the paper's Wiki and X2E sets are fixed files);
// the seed picks the slices of them and the call order. Sizes follow a
// fixed ladder, so the size mix, and with it the latency distribution, is
// the same for every seed.

enum class Kind { kCompressDefault, kRoundtripSw, kLogAppend };

struct WorkloadDef {
  const char* name;
  Kind kind;
  /// Run the whole process on one CPU. With one request in flight only one
  /// thread is runnable at a time, so on one CPU the client -> worker ->
  /// client hand-offs stay context switches instead of cross-CPU wake-ups,
  /// whose latency on a shared virtual machine swings with the neighbours'
  /// load. log-append, about 10k short calls a second, needs it (unpinned,
  /// its throughput moved 2x between runs). compress-default and
  /// roundtrip-sw make few enough hand-offs that a call's fastest repeat
  /// does not depend on them, and pinned they would take one CPU's host
  /// contention for the whole run (over six seeds roundtrip-sw spread
  /// 11-19 % pinned, 5-10 % unpinned).
  bool one_cpu;
};

constexpr WorkloadDef kWorkloads[] = {
    {"compress-default", Kind::kCompressDefault, false},
    {"roundtrip-sw", Kind::kRoundtripSw, false},
    {"log-append", Kind::kLogAppend, true},
};

/// Restricts the calling thread (and every thread it creates later) to the
/// highest-numbered CPU it may run on; CPU 0 usually takes more interrupts.
void pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0)
      throw std::runtime_error("sched_setaffinity failed");
    return;
  }
}

/// COMPRESS flags: compress-default leaves the backend to the service
/// default (kHw); roundtrip-sw pins the hash-chain finder (selector 2).
constexpr std::uint16_t kFlagsDefault = 0;
const std::uint16_t kFlagsHashChain = server::flags_with_matchfinder(0, 2);

constexpr std::size_t kLogCallsPerUnit = 4;  // LOG_APPENDs per LOG_READ
constexpr std::size_t kPrepopulatedRecords = 4096;

struct Inputs {
  std::vector<Bytes> items;
  std::vector<std::size_t> order;  ///< seeded permutation of item indices
};

std::vector<std::size_t> log_ladder(std::size_t n, std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> sizes(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double f = n == 1 ? 0.0 : static_cast<double>(k) / static_cast<double>(n - 1);
    sizes[k] = static_cast<std::size_t>(std::llround(static_cast<double>(lo) *
                                                     std::pow(static_cast<double>(hi) /
                                                                  static_cast<double>(lo),
                                                              f)));
  }
  return sizes;
}

Inputs make_inputs(Kind kind, std::uint64_t seed) {
  Inputs in;
  rng::Xoshiro256 r(mix(seed, 1));
  // Item k is a slice of document k % documents, so each corpus gets the
  // same share of every size class whatever the seed.
  const auto slices = [&](const std::vector<std::string>& documents, std::size_t doc_bytes,
                          const std::vector<std::size_t>& sizes) {
    std::vector<Bytes> bank;
    for (std::size_t d = 0; d < documents.size(); ++d)
      bank.push_back(wl::make_corpus(documents[d], doc_bytes, 1000 + d));
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      const Bytes& src = bank[k % bank.size()];
      const std::size_t off = r.next_below(src.size() - sizes[k] + 1);
      in.items.emplace_back(src.begin() + static_cast<std::ptrdiff_t>(off),
                            src.begin() + static_cast<std::ptrdiff_t>(off + sizes[k]));
    }
  };
  switch (kind) {
    case Kind::kCompressDefault:  // 64 KiB chunks of the paper's corpora
      slices({"wiki", "x2e", "mixed"}, 2 << 20, std::vector<std::size_t>(100, 64 * 1024));
      break;
    case Kind::kRoundtripSw:
      slices({"wiki", "x2e", "mixed"}, 2 << 20, log_ladder(50, 4 * 1024, 192 * 1024));
      break;
    case Kind::kLogAppend:
      slices({"x2e", "wiki"}, 2 << 20, log_ladder(256, 256, 4096));
      break;
  }
  in.order.resize(in.items.size());
  for (std::size_t i = 0; i < in.order.size(); ++i) in.order[i] = i;
  for (std::size_t i = in.order.size(); i > 1; --i)
    std::swap(in.order[i - 1], in.order[r.next_below(i)]);
  return in;
}

/// Units that touch every input exactly once (the warm-up pass).
std::size_t pool_units(Kind kind, const Inputs& in) {
  return kind == Kind::kLogAppend ? in.items.size() / kLogCallsPerUnit : in.items.size();
}

// ---------------------------------------------------------------------------
// Output gate.

/// True when the system zlib inflates @p comp (a zlib stream) to exactly @p x.
bool zlib_inflates_to(const Bytes& comp, const Bytes& x) {
  Bytes out(x.size());
  uLongf len = static_cast<uLongf>(out.size());
  return ::uncompress(out.data(), &len, comp.data(), static_cast<uLong>(comp.size())) == Z_OK &&
         len == x.size() && out == x;
}

class Gate {
 public:
  explicit Gate(const Inputs& in)
      : in_(in), zlib_(in.items.size()), adler_(in.items.size()) {
    for (std::size_t i = 0; i < in.items.size(); ++i)
      adler_[i] = static_cast<std::uint32_t>(
          ::adler32(::adler32(0, nullptr, 0), in.items[i].data(),
                    static_cast<uInt>(in.items[i].size())));
  }

  /// A zlib COMPRESS reply for item @p i.
  bool zlib_reply(std::size_t i, const ResponseFrame& r) {
    if (!header_ok(i, r)) return false;
    if (!zlib_[i].empty() && r.payload == zlib_[i]) return true;
    if (!zlib_inflates_to(r.payload, in_.items[i])) return false;
    zlib_[i] = r.payload;
    return true;
  }

  /// A DECOMPRESS or LOG_READ reply that must reproduce item @p i.
  bool plain_reply(std::size_t i, const ResponseFrame& r) {
    return header_ok(i, r) && r.payload == in_.items[i];
  }

  /// A LOG_APPEND reply: the 8-byte LE sequence and the record's Adler-32.
  bool append_reply(std::size_t i, const ResponseFrame& r, std::uint64_t expected_seq) {
    if (!header_ok(i, r) || r.payload.size() != 8) return false;
    std::uint64_t seq = 0;
    for (int b = 7; b >= 0; --b) seq = (seq << 8) | r.payload[static_cast<std::size_t>(b)];
    return seq == expected_seq;
  }

 private:
  bool header_ok(std::size_t i, const ResponseFrame& r) const {
    return r.status == Status::kOk && r.adler == adler_[i];
  }

  const Inputs& in_;
  std::vector<Bytes> zlib_;  ///< per item: a reply the oracle has passed
  std::vector<std::uint32_t> adler_;
};

// ---------------------------------------------------------------------------
// The system under test, set up the way lzssd sets itself up.

struct Env {
  /// Shared by the service and the store, as in lzssd; outlives both.
  obs::Registry registry;
  std::unique_ptr<store::LogStore> store;
  std::unique_ptr<server::Service> service;
  std::unique_ptr<server::TcpServer> tcp;
  std::thread tcp_thread;
  std::unique_ptr<server::TcpClient> tcp_client;
  std::unique_ptr<server::LoopbackClient> loop_client;
  double store_open_s = 0;

  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  ~Env() {
    tcp_client.reset();
    if (tcp) {
      tcp->stop();
      if (tcp_thread.joinable()) tcp_thread.join();
      tcp.reset();
    }
    loop_client.reset();
    service.reset();
    store.reset();
  }

  ResponseFrame call(const RequestFrame& r) {
    return tcp_client ? tcp_client->call(r) : loop_client->call(r);
  }
};

struct EnvSpec {
  bool tcp = false;
  std::string store_dir;            ///< empty = no log store
  obs::TraceRing* ring = nullptr;   ///< non-null = trace every request
};

/// Builds the service (plus TCP front end and log store when asked) and
/// waits for the first OK reply to @p first.
std::unique_ptr<Env> open_env(const EnvSpec& spec, const RequestFrame& first) {
  auto env = std::make_unique<Env>();
  if (!spec.store_dir.empty()) {
    const auto t0 = Clock::now();
    env->store = std::make_unique<store::LogStore>(spec.store_dir);
    env->store_open_s = seconds_since(t0);
  }
  server::ServiceConfig cfg;
  cfg.registry = &env->registry;
  if (spec.ring != nullptr) {
    cfg.trace = spec.ring;
    cfg.trace_sample = 1;
  }
  env->service = std::make_unique<server::Service>(cfg);
  if (env->store) {
    env->store->bind_metrics(env->registry, spec.ring);
    env->service->attach_store(env->store.get());
  }
  if (spec.tcp) {
    env->tcp = std::make_unique<server::TcpServer>(*env->service, 0);
    env->tcp_thread = std::thread([e = env.get()] { e->tcp->run(); });
    env->tcp_client = std::make_unique<server::TcpClient>("127.0.0.1", env->tcp->port());
  } else {
    env->loop_client = std::make_unique<server::LoopbackClient>(*env->service);
  }
  if (env->call(first).status != Status::kOk)
    throw std::runtime_error("set-up: first request was not answered OK");
  return env;
}

RequestFrame make_request(Opcode op, std::uint16_t flags, Bytes payload) {
  static std::uint64_t next_id = 1;
  RequestFrame r;
  r.id = next_id++;
  r.opcode = op;
  r.flags = flags;
  r.payload = std::move(payload);
  return r;
}

Bytes le64(std::uint64_t v) {
  Bytes b(8);
  for (int i = 0; i < 8; ++i) b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  return b;
}

// ---------------------------------------------------------------------------
// Closed-loop client: one "unit" is the workload's repeating call pattern.

struct CallLog {
  std::vector<double> us;      ///< per call, send to parsed response
  std::vector<double> cpu_us;  ///< per call, process CPU time (all threads) over the same span
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes = 0;       ///< uncompressed payload bytes handled
  std::uint64_t raw_in = 0;      ///< COMPRESS input bytes
  std::uint64_t comp_out = 0;    ///< COMPRESS reply bytes
  std::string first_error;
};

class Client {
 public:
  Client(Kind kind, const Inputs& in, Gate& gate, std::uint64_t seed)
      : kind_(kind), in_(in), gate_(gate), seed_(seed) {}

  /// Call before a phase on @p env: log-append sequences continue from the
  /// store's next sequence.
  void begin(Env& env) {
    recent_.clear();
    next_seq_ = env.store ? env.store->next_sequence() : 0;
  }

  void unit(Env& env, std::size_t u, CallLog& log) {
    const std::size_t n = in_.order.size();
    switch (kind_) {
      case Kind::kCompressDefault: {
        const std::size_t i = in_.order[u % n];
        const ResponseFrame r = call(env, Opcode::kCompress, kFlagsDefault, in_.items[i], log);
        note_compress(log, i, r, gate_.zlib_reply(i, r), "COMPRESS");
        break;
      }
      case Kind::kRoundtripSw: {
        const std::size_t i = in_.order[u % n];
        ResponseFrame c = call(env, Opcode::kCompress, kFlagsHashChain, in_.items[i], log);
        const bool ok = gate_.zlib_reply(i, c);
        note_compress(log, i, c, ok, "COMPRESS");
        if (!ok) break;
        const ResponseFrame d = call(env, Opcode::kDecompress, 0, std::move(c.payload), log);
        note(log, i, gate_.plain_reply(i, d), "DECOMPRESS");
        break;
      }
      case Kind::kLogAppend: {
        for (std::size_t j = 0; j < kLogCallsPerUnit; ++j) {
          const std::size_t i = in_.order[(u * kLogCallsPerUnit + j) % n];
          const ResponseFrame r = call(env, Opcode::kLogAppend, 0, in_.items[i], log);
          note(log, i, gate_.append_reply(i, r, next_seq_), "LOG_APPEND");
          recent_.emplace_back(next_seq_++, i);
          if (recent_.size() > 64) recent_.pop_front();
        }
        // Keyed by the unit's place in its pass, so every pass reads alike.
        const std::size_t units = n / kLogCallsPerUnit;
        const auto& [seq, i] = recent_[mix(seed_, u % units) % recent_.size()];
        const ResponseFrame r = call(env, Opcode::kLogRead, 0, le64(seq), log);
        log.bytes += in_.items[i].size();
        note(log, i, gate_.plain_reply(i, r), "LOG_READ");
        break;
      }
    }
  }

 private:
  ResponseFrame call(Env& env, Opcode op, std::uint16_t flags, Bytes payload, CallLog& log) {
    if (op == Opcode::kCompress || op == Opcode::kLogAppend)
      log.bytes += payload.size();
    const RequestFrame req = make_request(op, flags, std::move(payload));
    ++log.calls;
    const double c0 = process_cpu_us();
    const auto t0 = Clock::now();
    ResponseFrame r;
    try {
      r = env.call(req);
    } catch (const std::exception& e) {
      r.status = Status::kInternal;
      if (log.first_error.empty()) log.first_error = std::string("transport: ") + e.what();
    }
    log.us.push_back(us_between(t0, Clock::now()));
    log.cpu_us.push_back(process_cpu_us() - c0);
    if (op == Opcode::kDecompress) log.bytes += r.payload.size();
    return r;
  }

  static void note(CallLog& log, std::size_t item, bool ok, const char* what) {
    if (ok) return;
    ++log.failed;
    if (log.first_error.empty())
      log.first_error = std::string(what) + " reply failed the gate for input " +
                        std::to_string(item);
  }
  void note_compress(CallLog& log, std::size_t item, const ResponseFrame& r, bool ok,
                     const char* what) const {
    note(log, item, ok, what);
    log.raw_in += in_.items[item].size();
    log.comp_out += r.payload.size();
  }

  Kind kind_;
  const Inputs& in_;
  Gate& gate_;
  std::uint64_t seed_;
  std::uint64_t next_seq_ = 0;
  std::deque<std::pair<std::uint64_t, std::size_t>> recent_;
};

/// Runs units from index 0 until @p seconds pass (at least @p min_units).
/// With seconds = 0 and min_units = pool_units() it is the warm-up pass:
/// every input once, which is also the fixed set the exact figures cover.
CallLog run_phase(Client& client, Env& env, double seconds, std::size_t min_units = 1) {
  CallLog log;
  client.begin(env);
  const auto t0 = Clock::now();
  for (std::size_t u = 0; u < min_units || seconds_since(t0) < seconds; ++u)
    client.unit(env, u, log);
  return log;
}

// ---------------------------------------------------------------------------
// Registry reads (the service's existing counters).

std::uint64_t counter_sum(const obs::Snapshot& s, std::string_view name,
                          std::string_view label_value = "") {
  std::uint64_t total = 0;
  for (const obs::Sample& m : s.samples) {
    if (m.name != name) continue;
    if (!label_value.empty() &&
        std::none_of(m.labels.begin(), m.labels.end(),
                     [&](const auto& kv) { return kv.second == label_value; }))
      continue;
    total += m.value;
  }
  return total;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Spans recorded around direct calls into the layers (the traced replay).

class Tracer {
 public:
  struct Rec {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    double t0;
    double t1;
    std::uint64_t bytes;
    std::int64_t call;  ///< replayed client-call index (roots only), else -1
  };

  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t bytes, std::int64_t call = -1)
        : t_(t), prev_(t.current_) {
      rec_.name = name;
      rec_.id = ++t.next_id_;
      rec_.parent = t.current_;
      rec_.bytes = bytes;
      rec_.call = call;
      t.current_ = rec_.id;
      rec_.t0 = t.now();
    }
    ~Scope() {
      rec_.t1 = t_.now();
      t_.current_ = prev_;
      t_.recs_.push_back(rec_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    Rec rec_{};
    std::uint64_t prev_;
  };

  template <class F>
  auto span(const char* name, std::uint64_t bytes, F&& f) {
    const Scope s(*this, name, bytes);
    return f();
  }

  /// Per span: self time = duration minus the union of its children.
  struct Derived {
    std::vector<double> self_us;        ///< indexed like records()
    std::map<std::int64_t, double> call_coverage_us;  ///< root call -> covered time
  };
  [[nodiscard]] Derived derive() const;

  [[nodiscard]] const std::vector<Rec>& records() const noexcept { return recs_; }

 private:
  double now() const { return us_between(epoch_, Clock::now()); }

  Clock::time_point epoch_ = Clock::now();
  std::uint64_t next_id_ = 0;
  std::uint64_t current_ = 0;  ///< the innermost open span (single-threaded)
  std::vector<Rec> recs_;
};

double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0;
  double lo = 0;
  double hi = -1;
  for (const auto& [a, b] : iv) {
    if (a > hi) {
      if (hi > lo) total += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

Tracer::Derived Tracer::derive() const {
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t k = 0; k < recs_.size(); ++k) index[recs_[k].id] = k;
  std::vector<std::vector<std::pair<double, double>>> kids(recs_.size());
  for (const Rec& r : recs_) {
    const auto p = index.find(r.parent);
    if (p != index.end()) kids[p->second].emplace_back(r.t0, r.t1);
  }
  Derived d;
  d.self_us.resize(recs_.size());
  for (std::size_t k = 0; k < recs_.size(); ++k) {
    const double covered = union_length(kids[k]);
    d.self_us[k] = std::max(0.0, recs_[k].t1 - recs_[k].t0 - covered);
    if (recs_[k].call >= 0) d.call_coverage_us[recs_[k].call] = covered;
  }
  return d;
}

// ---------------------------------------------------------------------------
// Replay: the service's calls into each layer, in the service's order.

// The service's own mapping from its HwConfig to the zlib window and to the
// software finder's MatchParams (internal to server/service.cpp), repeated
// so the replay calls the layers with exactly the service's arguments.
unsigned container_window_bits(const hw::HwConfig& cfg) {
  return std::clamp(cfg.dict_bits, 8u, 15u);
}

core::MatchParams sw_params(const hw::HwConfig& cfg) {
  core::MatchParams p;
  p.window_bits = cfg.dict_bits;
  p.hash = cfg.hash;
  p.max_chain = cfg.max_chain;
  p.nice_length = cfg.nice_length;
  p.max_lazy = cfg.max_insert;
  p.finder = core::MatchFinderKind::kHashChain;
  return p;
}

class Replay {
 public:
  Replay(Kind kind, const Inputs& in, Tracer& tr, std::uint64_t seed, const std::string& store_dir)
      : kind_(kind), in_(in), tr_(tr), seed_(seed), engine_(cfg_.hw) {
    if (kind == Kind::kLogAppend) {
      std::filesystem::remove_all(store_dir);
      store_ = std::make_unique<store::LogStore>(store_dir);
    }
  }

  /// Mirrors Client::unit; every call gets a root span carrying its index.
  void unit(std::size_t u) {
    const std::size_t n = in_.order.size();
    switch (kind_) {
      case Kind::kCompressDefault: {
        const std::size_t i = in_.order[u % n];
        check(i, compress_hw(in_.items[i]), true);
        break;
      }
      case Kind::kRoundtripSw: {
        const std::size_t i = in_.order[u % n];
        Bytes z = compress_sw(in_.items[i]);
        check(i, z, true);
        check(i, decompress(std::move(z), in_.items[i].size()), false);
        break;
      }
      case Kind::kLogAppend: {
        for (std::size_t j = 0; j < kLogCallsPerUnit; ++j) {
          const std::size_t i = in_.order[(u * kLogCallsPerUnit + j) % n];
          recent_.emplace_back(log_append(in_.items[i]), i);
          if (recent_.size() > 64) recent_.pop_front();
        }
        // Keyed by the unit's place in its pass, so every pass reads alike.
        const std::size_t units = n / kLogCallsPerUnit;
        const auto& [seq, i] = recent_[mix(seed_, u % units) % recent_.size()];
        if (log_read(seq) != in_.items[i]) ++mismatches_;
        break;
      }
    }
  }

  [[nodiscard]] std::uint64_t mismatches() const noexcept { return mismatches_; }
  [[nodiscard]] std::int64_t calls() const noexcept { return call_; }

 private:
  /// Frames one request and one response the way the transports do.
  template <class F>
  Bytes framed(Opcode op, std::uint16_t flags, Bytes payload, F&& body) {
    const Tracer::Scope root(tr_, "call", 0, call_++);
    RequestFrame req = make_request(op, flags, std::move(payload));
    const Bytes wire = tr_.span("server.frame.encode", req.payload.size(),
                                [&] { return server::encode_request(req); });
    const RequestFrame parsed = tr_.span("server.frame.parse", wire.size(), [&] {
      server::RequestParser p;
      p.feed(wire);
      return *p.next();
    });
    ResponseFrame resp;
    resp.id = parsed.id;
    resp.flags = parsed.flags;
    resp.payload = body(std::span<const std::uint8_t>(parsed.payload), resp.adler);
    const Bytes out = tr_.span("server.frame.encode", resp.payload.size(),
                               [&] { return server::encode_response(resp); });
    return tr_.span("server.frame.parse", out.size(), [&] {
      server::ResponseParser p;
      p.feed(out);
      return p.next()->payload;
    });
  }

  std::uint32_t adler(std::span<const std::uint8_t> x) {
    return tr_.span("common.adler32", x.size(), [&] { return checksum::adler32(x); });
  }

  Bytes compress_hw(const Bytes& x) {
    return framed(Opcode::kCompress, 0, x, [&](std::span<const std::uint8_t> in, std::uint32_t& a) {
      a = adler(in);
      const hw::HwConfig& cfg = cfg_.hw;
      const auto res = tr_.span("hw.compress", in.size(), [&] { return engine_.compress(in); });
      return tr_.span("deflate.encode", in.size(), [&] {
        return deflate::zlib_wrap_tokens(res.tokens, in, container_window_bits(cfg),
                                         deflate::BlockKind::kFixed);
      });
    });
  }

  Bytes compress_sw(const Bytes& x) {
    return framed(Opcode::kCompress, kFlagsHashChain, x,
                  [&](std::span<const std::uint8_t> in, std::uint32_t& a) {
                    a = adler(in);
                    const auto tokens = tr_.span("lzss.encode", in.size(), [&] {
                      core::MatchFinderEncoder enc(sw_params(cfg_.hw));
                      return enc.encode(in);
                    });
                    return tr_.span("deflate.encode", in.size(), [&] {
                      return deflate::zlib_wrap_tokens(tokens, in,
                                                       container_window_bits(cfg_.hw),
                                                       deflate::BlockKind::kFixed);
                    });
                  });
  }

  Bytes decompress(Bytes comp, std::size_t raw_size) {
    return framed(Opcode::kDecompress, 0, std::move(comp),
                  [&](std::span<const std::uint8_t> in, std::uint32_t& a) {
                    Bytes out = tr_.span("deflate.inflate", raw_size, [&] {
                      return deflate::zlib_decompress(in, cfg_.max_payload);
                    });
                    a = adler(out);
                    return out;
                  });
  }
  std::uint64_t log_append(const Bytes& x) {
    const Bytes reply = framed(Opcode::kLogAppend, 0, x,
                               [&](std::span<const std::uint8_t> in, std::uint32_t& a) {
                                 const std::uint64_t seq = tr_.span(
                                     "store.append", in.size(), [&] { return store_->append(in); });
                                 a = adler(in);
                                 return le64(seq);
                               });
    std::uint64_t seq = 0;
    for (int b = 7; b >= 0; --b) seq = (seq << 8) | reply[static_cast<std::size_t>(b)];
    return seq;
  }

  Bytes log_read(std::uint64_t seq) {
    return framed(Opcode::kLogRead, 0, le64(seq),
                  [&](std::span<const std::uint8_t>, std::uint32_t& a) {
                    Bytes out = tr_.span("store.read", 8, [&] { return store_->read(seq); });
                    a = adler(out);
                    return out;
                  });
  }

  /// The replay must do the service's work: its outputs pass the same gate.
  void check(std::size_t i, const Bytes& out, bool zlib) {
    if (!(zlib ? zlib_inflates_to(out, in_.items[i]) : out == in_.items[i])) ++mismatches_;
  }

  Kind kind_;
  const Inputs& in_;
  Tracer& tr_;
  std::uint64_t seed_;
  server::ServiceConfig cfg_;
  hw::Compressor engine_;  ///< the worker's long-lived model
  std::unique_ptr<store::LogStore> store_;
  std::deque<std::pair<std::uint64_t, std::size_t>> recent_;
  std::int64_t call_ = 0;
  std::uint64_t mismatches_ = 0;
};

/// Each compute layer's public function alone over the workload's inputs,
/// round-robin until @p seconds pass (at least one input per layer).
/// @p imbalance collects, per multi-engine call, the slowest engine's cycles
/// over the mean engine's.
void sweep_layers(const Inputs& in, Tracer& tr, double seconds, std::vector<double>& imbalance) {
  const server::ServiceConfig cfg;
  hw::Compressor engine(cfg.hw);
  struct Prepared {
    std::vector<core::Token> tokens;
    Bytes zlib;
    Bytes record;
  };
  std::vector<Prepared> prep(in.items.size());
  for (std::size_t i = 0; i < in.items.size(); ++i) {
    core::MatchFinderEncoder enc(sw_params(cfg.hw));
    prep[i].tokens = enc.encode(in.items[i]);
    prep[i].zlib = deflate::zlib_wrap_tokens(prep[i].tokens, in.items[i],
                                             container_window_bits(cfg.hw),
                                             deflate::BlockKind::kFixed);
    prep[i].record = container::encode_block(cfg.hw, &engine, in.items[i]).record;
  }
  const std::vector<std::function<void(std::size_t)>> layers = {
      [&](std::size_t i) {
        tr.span("hw.compress", in.items[i].size(), [&] { return engine.compress(in.items[i]); });
      },
      [&](std::size_t i) {
        tr.span("lzss.encode", in.items[i].size(), [&] {
          core::MatchFinderEncoder enc(sw_params(cfg.hw));
          return enc.encode(in.items[i]);
        });
      },
      [&](std::size_t i) {
        tr.span("deflate.encode", in.items[i].size(), [&] {
          return deflate::zlib_wrap_tokens(prep[i].tokens, in.items[i],
                                           container_window_bits(cfg.hw),
                                           deflate::BlockKind::kFixed);
        });
      },
      [&](std::size_t i) {
        tr.span("deflate.inflate", in.items[i].size(),
                [&] { return deflate::zlib_decompress(prep[i].zlib); });
      },
      [&](std::size_t i) {
        tr.span("common.adler32", in.items[i].size(),
                [&] { return checksum::adler32(in.items[i]); });
      },
      [&](std::size_t i) {
        tr.span("common.crc32", in.items[i].size(), [&] { return checksum::crc32(in.items[i]); });
      },
      [&](std::size_t i) {
        tr.span("container.encode_block", in.items[i].size(),
                [&] { return container::encode_block(cfg.hw, &engine, in.items[i]); });
      },
      [&](std::size_t i) {
        const Bytes& rec = prep[i].record;
        Bytes framed;
        container::append_superframe_header(framed, static_cast<std::uint32_t>(in.items[i].size()),
                                            1, in.items[i].size());
        framed.insert(framed.end(), rec.begin(), rec.end());
        const auto view = container::parse(framed, in.items[i].size());
        Bytes out(in.items[i].size());
        tr.span("container.decode_block", out.size(), [&] {
          container::decode_block(view.blocks[0], out);
          return 0;
        });
      },
      [&](std::size_t i) {
        const auto rep = tr.span("parallel.multi_engine", in.items[i].size(), [&] {
          return par::compress_multi_engine(cfg.hw, in.items[i], cfg.large_engines);
        });
        std::uint64_t slowest = 0;
        double sum = 0;
        for (const hw::CycleStats& e : rep.engines) {
          slowest = std::max(slowest, e.total_cycles);
          sum += static_cast<double>(e.total_cycles);
        }
        imbalance.push_back(
            ratio(static_cast<double>(slowest) * static_cast<double>(rep.engines.size()), sum));
      },
  };
  const double per_layer = seconds / static_cast<double>(layers.size());
  for (const auto& layer : layers) {
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k == 0 || seconds_since(t0) < per_layer; ++k)
      layer(in.order[k % in.order.size()]);
  }
}

// ---------------------------------------------------------------------------
// Host fingerprint and drift probe (diagnostics only; never a metric).

std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned a = 0;
  unsigned b = 0;
  unsigned c = 0;
  unsigned d = 0;
  if (__get_cpuid(0x80000000u, &a, &b, &c, &d) == 0 || a < 0x80000004u) return "unknown";
  for (unsigned leaf = 0; leaf < 3; ++leaf)
    __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                &regs[4 * leaf + 3]);
  char text[49] = {};
  std::memcpy(text, regs, 48);
  std::string s(text);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

/// A fixed integer kernel that shares no code with the library; timed at
/// the start and the end of each run to expose host speed drift.
double drift_probe_ms() {
  std::vector<std::uint64_t> table(8192, 1);
  std::uint64_t x = 88172645463325252ull;
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < (1 << 23); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table[x & 8191] += x;
    }
    ms.push_back(us_between(t0, Clock::now()) / 1000);
  }
  asm volatile("" : : "r"(table[x & 8191]) : "memory");  // keep the loop's result live
  return median(ms);
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ---------------------------------------------------------------------------
// Runs.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench/work";
};

constexpr std::size_t kSetupRepeats = 41;
/// A pass's p90 has at least 10 calls above it.
constexpr std::size_t kMinPassCalls = 100;
constexpr std::size_t kMinPasses = 10;

struct Prepared {
  const WorkloadDef* def;
  Inputs inputs;
  std::string store_dir;  ///< empty unless the workload uses the log store
  bool tcp = false;
  RequestFrame first;     ///< the set-up probe: the first request answered
};

Prepared prepare(const Options& opt) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads)
    if (opt.workload == w.name) def = &w;
  if (def == nullptr) throw std::invalid_argument("unknown workload: " + opt.workload);
  Prepared p{def, make_inputs(def->kind, opt.seed), "", def->kind == Kind::kRoundtripSw, {}};
  if (def->kind == Kind::kLogAppend) {
    p.store_dir = opt.workdir + "/store";
    std::filesystem::remove_all(p.store_dir);
    store::LogStore populate(p.store_dir);
    for (std::size_t k = 0; k < kPrepopulatedRecords; ++k)
      (void)populate.append(p.inputs.items[p.inputs.order[k % p.inputs.order.size()]]);
    p.first = make_request(Opcode::kLogRead, 0, le64(1));
  } else {
    const Bytes& x = p.inputs.items[0];
    p.first = make_request(Opcode::kCompress,
                           def->kind == Kind::kRoundtripSw ? kFlagsHashChain : kFlagsDefault,
                           Bytes(x.begin(), x.begin() + 4096));
  }
  return p;
}

/// Sets up kSetupRepeats times back to back (the traced run's store
/// reopen time); returns the last environment.
std::unique_ptr<Env> setup(const Prepared& p, std::vector<double>& setup_s,
                           std::vector<double>& store_open_s) {
  std::unique_ptr<Env> env;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    env.reset();
    const auto t0 = Clock::now();
    env = open_env(EnvSpec{p.tcp, p.store_dir, nullptr}, p.first);
    setup_s.push_back(seconds_since(t0));
    store_open_s.push_back(env->store_open_s);
  }
  return env;
}

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
  std::vector<double> pass_mb_s;  ///< per pass, wall time (diagnostic)
  std::vector<std::pair<const MetricDef*, double>> metrics;

  void absorb(const CallLog& log) {
    attempted += log.calls;
    failed += log.failed;
    if (error.empty()) error = log.first_error;
  }
  void set(std::string_view name, double v) {
    for (const auto& table : {std::span<const MetricDef>(kEndToEnd), std::span<const MetricDef>(kPerLayer)})
      for (const MetricDef& m : table)
        if (name == m.name) {
          metrics.emplace_back(&m, v);
          return;
        }
    throw std::logic_error("unlisted metric " + std::string(name));
  }
};

double sim_mb_s(const Inputs& in) {
  const server::ServiceConfig cfg;
  hw::Compressor engine(cfg.hw);
  hw::CycleStats total;
  for (const Bytes& x : in.items) total += engine.compress(x).stats;
  return total.mb_per_s(cfg.hw.clock_mhz);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void end_to_end(const Options& opt, Result& res) {
  Prepared p = prepare(opt);
  Gate gate(p.inputs);
  Client client(p.def->kind, p.inputs, gate, opt.seed);
  // The timed set-ups are spread evenly over the timed window, between
  // passes, each building a spare environment beside the one under load, so
  // their median covers the same phases of host speed as the calls do (taken
  // back to back at the start, the median of a run moved 30 % between runs
  // on roundtrip-sw; spread, 8 %). The spare log store is a copy of the
  // populated one.
  const EnvSpec spare{p.tcp, p.store_dir.empty() ? "" : p.store_dir + "-setup", nullptr};
  if (!spare.store_dir.empty()) {
    std::filesystem::remove_all(spare.store_dir);
    std::filesystem::copy(p.store_dir, spare.store_dir, std::filesystem::copy_options::recursive);
  }
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    const std::unique_ptr<Env> e = open_env(spare, p.first);
    setup_s.push_back(seconds_since(t0));
  };
  std::unique_ptr<Env> env = open_env(EnvSpec{p.tcp, p.store_dir, nullptr}, p.first);

  const store::StoreStats s0 = env->store ? env->store->stats() : store::StoreStats{};
  const CallLog warm = run_phase(client, *env, 0, pool_units(p.def->kind, p.inputs));
  const store::StoreStats s1 = env->store ? env->store->stats() : store::StoreStats{};
  res.absorb(warm);
  const double compressed_ratio =
      env->store ? ratio(static_cast<double>(s1.bytes_stored - s0.bytes_stored),
                         static_cast<double>(s1.bytes_in - s0.bytes_in))
                 : ratio(static_cast<double>(warm.comp_out), static_cast<double>(warm.raw_in));

  // The timed window repeats whole passes, each sending every input once in
  // the same order, so call k of every pass is the same request. The host's
  // speed moves in phases of seconds (CPU steal and neighbours on a shared
  // virtual machine), so each call is timed at its fastest repeat in the run:
  // the program's cost with the host at its quietest, which is what a change
  // to the program moves. Every timed figure is taken over one pass of those
  // fastest repeats.
  CallLog log;
  const std::size_t units = pool_units(p.def->kind, p.inputs);
  std::vector<double> pass_mb_s;
  client.begin(*env);
  std::size_t u = 0;
  const auto start = Clock::now();
  while (pass_mb_s.size() < kMinPasses || seconds_since(start) < opt.seconds) {
    while (static_cast<double>(setup_s.size()) <
           std::min(1.0, seconds_since(start) / opt.seconds) * kSetupRepeats)
      set_up();
    const std::uint64_t b0 = log.bytes;
    const auto t0 = Clock::now();
    for (const std::size_t end = u + units; u < end; ++u) client.unit(*env, u, log);
    pass_mb_s.push_back(static_cast<double>(log.bytes - b0) / us_between(t0, Clock::now()));
  }
  while (setup_s.size() < kSetupRepeats) set_up();
  res.attempted += 1 + setup_s.size();
  const std::size_t passes = pass_mb_s.size();
  const std::size_t per_pass = log.us.size() / passes;
  std::vector<double> fastest_us(per_pass, INFINITY);
  std::vector<double> fastest_cpu_us(per_pass, INFINITY);
  for (std::size_t k = 0; k < per_pass * passes; ++k) {
    fastest_us[k % per_pass] = std::min(fastest_us[k % per_pass], log.us[k]);
    fastest_cpu_us[k % per_pass] = std::min(fastest_cpu_us[k % per_pass], log.cpu_us[k]);
  }
  double pass_us = 0;
  double pass_cpu_us = 0;
  for (std::size_t k = 0; k < per_pass; ++k) {
    pass_us += fastest_us[k];
    pass_cpu_us += fastest_cpu_us[k];
  }
  const double pass_bytes = static_cast<double>(log.bytes) / static_cast<double>(passes);
  res.absorb(log);
  res.pass_mb_s = pass_mb_s;
  env.reset();

  res.set("throughput_mb_s", pass_bytes / pass_us);
  res.set("req_per_s", static_cast<double>(per_pass) / pass_us * 1e6);
  res.set("latency_p50_ms", quantile(fastest_us, 0.5) / 1000);
  res.set("latency_p90_ms", quantile(fastest_us, 0.9) / 1000);
  res.set("cpu_ns_per_byte", pass_cpu_us * 1000 / pass_bytes);
  res.set("compressed_ratio", compressed_ratio);
  res.set("sim_mb_s", sim_mb_s(p.inputs));
  res.set("setup_s", median(setup_s));
  res.set("peak_rss_mb", peak_rss_mb());
  if (per_pass < kMinPassCalls) {
    res.correct = false;
    res.error = "a pass has fewer than 100 calls: its p90 has under 10 calls above it";
  }
  for (const std::string& dir : {p.store_dir, spare.store_dir})
    if (!dir.empty()) std::filesystem::remove_all(dir);
}

/// Per-call pairs of two phases that ran the same call sequence.
std::vector<double> paired(const std::vector<double>& a, const std::vector<double>& b,
                           const std::function<double(double, double)>& f) {
  std::vector<double> out;
  for (std::size_t k = 0; k < std::min(a.size(), b.size()); ++k) out.push_back(f(a[k], b[k]));
  return out;
}

void per_layer(const Options& opt, Result& res) {
  Prepared p = prepare(opt);
  Gate gate(p.inputs);
  Client client(p.def->kind, p.inputs, gate, opt.seed);
  std::vector<double> setup_s;
  std::vector<double> store_open_s;
  std::unique_ptr<Env> env = setup(p, setup_s, store_open_s);
  res.attempted += setup_s.size();
  const double S = opt.seconds;

  // Exact counts over the warm-up pass (a fixed set of calls).
  const obs::Snapshot w0 = env->service->metrics().snapshot();
  const store::StoreStats s0 = env->store ? env->store->stats() : store::StoreStats{};
  res.absorb(run_phase(client, *env, 0, pool_units(p.def->kind, p.inputs)));
  const obs::Snapshot w1 = env->service->metrics().snapshot();
  const store::StoreStats s1 = env->store ? env->store->stats() : store::StoreStats{};
  const auto delta = [](const obs::Snapshot& a, const obs::Snapshot& b, std::string_view name,
                        std::string_view label = "") {
    return static_cast<double>(counter_sum(b, name, label) - counter_sum(a, name, label));
  };

  // Phase A: untraced, the reference for closure and trace overhead.
  const obs::Snapshot a0 = env->service->metrics().snapshot();
  const auto ta = Clock::now();
  const CallLog A = run_phase(client, *env, S * (p.tcp ? 0.3 : 0.45));
  const double a_wall = seconds_since(ta);
  const obs::Snapshot a1 = env->service->metrics().snapshot();
  res.absorb(A);
  const unsigned workers = env->service->config().workers;
  env.reset();

  // Phase A2 (TCP workloads): the same calls over LoopbackClient.
  std::vector<double> tcp_overhead;
  if (p.tcp) {
    std::unique_ptr<Env> loop = open_env(EnvSpec{false, p.store_dir, nullptr}, p.first);
    const CallLog L = run_phase(client, *loop, S * 0.15);
    res.absorb(L);
    tcp_overhead = paired(A.us, L.us, [](double a, double l) { return a - l; });
  }

  // Phase B: the same calls with the service's TraceRing on every request.
  obs::TraceRing ring(1 << 16);
  std::vector<obs::TraceEvent> events;
  CallLog B;
  {
    std::unique_ptr<Env> traced = open_env(EnvSpec{p.tcp, p.store_dir, &ring}, p.first);
    B = run_phase(client, *traced, S * 0.2);
    res.absorb(B);
  }
  events = ring.events();

  // Phase C: spans around direct calls into each layer.
  Tracer tr;
  std::vector<double> imbalance;
  std::int64_t replayed = 0;
  {
    Replay rp(p.def->kind, p.inputs, tr, opt.seed, opt.workdir + "/replay_store");
    const auto tc = Clock::now();
    for (std::size_t u = 0; u == 0 || seconds_since(tc) < S * 0.2; ++u) rp.unit(u);
    replayed = rp.calls();
    res.attempted += static_cast<std::uint64_t>(replayed);
    res.failed += rp.mismatches();
    if (rp.mismatches() != 0 && res.error.empty()) res.error = "replay output failed the gate";
  }
  std::filesystem::remove_all(opt.workdir + "/replay_store");
  sweep_layers(p.inputs, tr, S * 0.15, imbalance);

  struct Layer {
    double self_us = 0;
    double bytes = 0;
    std::vector<double> self;
  };
  std::map<std::string, Layer> layers;
  const Tracer::Derived d = tr.derive();
  for (std::size_t k = 0; k < tr.records().size(); ++k) {
    Layer& l = layers[tr.records()[k].name];
    l.self_us += d.self_us[k];
    l.bytes += static_cast<double>(tr.records()[k].bytes);
    l.self.push_back(d.self_us[k]);
  }
  const auto rate = [&](const char* name) {
    const Layer& l = layers[name];
    return ratio(l.bytes, l.self_us);  // bytes per microsecond == MB/s
  };
  const auto mean_us = [&](const char* name) {
    const Layer& l = layers[name];
    return ratio(l.self_us, static_cast<double>(l.self.size()));
  };

  // Service-side spans from the TraceRing: queue wait = opcode span start
  // minus the request root's arrival; fsync span durations.
  std::map<std::uint64_t, const obs::TraceEvent*> roots;
  for (const obs::TraceEvent& e : events)
    if (std::string_view(e.name).starts_with("request.")) roots[e.span_id] = &e;
  std::vector<double> queue_wait;
  std::vector<double> fsync_us;
  for (const obs::TraceEvent& e : events) {
    const auto r = roots.find(e.parent_id);
    if (r != roots.end() && std::string_view(r->second->name).substr(8) == e.name)
      queue_wait.push_back(static_cast<double>(e.start_us - r->second->start_us));
    if (std::string_view(e.name) == "store.fsync")
      fsync_us.push_back(static_cast<double>(e.end_us - e.start_us));
  }

  // Closure: per replayed call, the time its layer spans cover, plus the
  // median queue wait and (over TCP) the median transport overhead, against
  // the same call's untraced latency.
  const double tcp_p50 = median(tcp_overhead);
  const double queue_p50 = median(queue_wait);
  std::vector<double> unaccounted;
  for (std::int64_t k = 0; k < std::min<std::int64_t>(replayed, static_cast<std::int64_t>(A.us.size()));
       ++k) {
    const double covered = d.call_coverage_us.at(k) + queue_p50 + (p.tcp ? tcp_p50 : 0.0);
    unaccounted.push_back(1.0 - covered / A.us[static_cast<std::size_t>(k)]);
  }

  const double hw_bytes = delta(w0, w1, "hw_bytes_in_total");
  res.set("hw.compress_mb_s", rate("hw.compress"));
  res.set("hw.cycles_per_byte", ratio(delta(w0, w1, "hw_cycles_total"), hw_bytes));
  for (const char* state : {"waiting", "fetching", "matching", "output", "updating", "rotating"})
    res.set(std::string("hw.cycles_per_byte.") + state,
            ratio(delta(w0, w1, "hw_state_cycles_total", state), hw_bytes));
  const double mf_bytes = delta(w0, w1, "matchfinder_bytes_in_total");
  res.set("lzss.encode_mb_s", rate("lzss.encode"));
  res.set("lzss.probes_per_byte", ratio(delta(w0, w1, "matchfinder_probes_total"), mf_bytes));
  res.set("lzss.compare_bytes_per_byte",
          ratio(delta(w0, w1, "matchfinder_compare_bytes_total"), mf_bytes));
  res.set("deflate.encode_mb_s", rate("deflate.encode"));
  res.set("deflate.inflate_mb_s", rate("deflate.inflate"));
  res.set("common.adler32_mb_s", rate("common.adler32"));
  res.set("common.crc32_mb_s", rate("common.crc32"));
  res.set("server.frame.encode_us", mean_us("server.frame.encode"));
  res.set("server.frame.parse_us", mean_us("server.frame.parse"));
  res.set("server.service.queue_wait_us_p50", queue_p50);
  res.set("server.service.worker_busy_share",
          ratio(delta(a0, a1, "server_worker_busy_us_total"), a_wall * 1e6 * workers));
  res.set("server.tcp.overhead_us_p50", tcp_p50);
  res.set("container.encode_block_mb_s", rate("container.encode_block"));
  res.set("container.decode_block_mb_s", rate("container.decode_block"));
  res.set("parallel.multi_engine_mb_s", rate("parallel.multi_engine"));
  res.set("parallel.engine_imbalance", median(imbalance));
  res.set("store.append_us_p50", quantile(layers["store.append"].self, 0.5));
  res.set("store.append_us_p90", quantile(layers["store.append"].self, 0.9));
  res.set("store.read_us_p50", quantile(layers["store.read"].self, 0.5));
  res.set("store.fsync_count", static_cast<double>(s1.fsyncs - s0.fsyncs));
  res.set("store.fsync_us_p50", median(fsync_us));
  res.set("store.record_ratio",
          ratio(static_cast<double>(s1.bytes_stored - s0.bytes_stored),
                static_cast<double>(s1.bytes_in - s0.bytes_in)));
  res.set("store.reopen_ms", p.store_dir.empty() ? 0.0 : median(store_open_s) * 1000);
  res.set("closure.unaccounted_share", median(unaccounted));
  res.set("obs.trace_overhead_pct",
          100 * (median(paired(A.us, B.us, [](double a, double b) { return b / a; })) - 1));
  if (std::filesystem::exists(p.store_dir)) std::filesystem::remove_all(p.store_dir);
}

void print_result(const Options& opt, const Result& res, double probe_start, double probe_end) {
  std::string passes = "\"n\": " + std::to_string(res.pass_mb_s.size());
  for (const double q : {0.25, 0.5, 0.75})
    passes += ", \"p" + std::to_string(static_cast<int>(q * 100)) + "\": " +
              json_number(quantile(res.pass_mb_s, q));
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"host\": {\"nproc\": %u, "
      "\"cpu\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", \"isa\": \"%s\"}, "
      "\"drift_probe_ms\": {\"start\": %s, \"end\": %s}, \"pass_mb_s\": {%s}, "
      "\"error\": \"%s\"}\n",
      json_escape(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? 1 : 0, std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      json_escape(__VERSION__).c_str(), LZSSD_BENCH_BUILD_TYPE,
      core::simd::isa_name(core::simd::active_isa()), json_number(probe_start).c_str(),
      json_number(probe_end).c_str(), passes.c_str(), json_escape(res.error).c_str());
  std::string m;
  for (const auto& [def, v] : res.metrics) {
    if (!m.empty()) m += ", ";
    m += "\"" + std::string(def->name) + "\": {\"value\": " + json_number(v) + ", \"unit\": \"" +
         def->unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              res.correct && res.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), m.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Self-tests of the benchmark itself.

int selftest(const Options& opt) {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (const WorkloadDef& w : kWorkloads) {
    const Inputs a = make_inputs(w.kind, 1);
    const Inputs b = make_inputs(w.kind, 1);
    const Inputs c = make_inputs(w.kind, 2);
    expect(a.items == b.items && a.order == b.order,
           std::string(w.name) + ": the same seed gives identical inputs");
    expect(a.items != c.items, std::string(w.name) + ": another seed gives other inputs");
  }

  // Bypass: which layers each workload's service path runs, read from the
  // service's own counters after a few calls.
  for (const Kind kind : {Kind::kCompressDefault, Kind::kRoundtripSw}) {
    Options o = opt;
    o.workload = kind == Kind::kCompressDefault ? "compress-default" : "roundtrip-sw";
    Prepared p = prepare(o);
    Gate gate(p.inputs);
    Client client(kind, p.inputs, gate, 1);
    std::unique_ptr<Env> env = open_env(EnvSpec{p.tcp, "", nullptr}, p.first);
    const CallLog log = run_phase(client, *env, 0, 4);
    const obs::Snapshot s = env->service->metrics().snapshot();
    const std::uint64_t probes = counter_sum(s, "matchfinder_probes_total");
    const std::uint64_t cycles = counter_sum(s, "hw_cycles_total");
    expect(log.failed == 0 && log.calls > 0, o.workload + ": calls pass the output gate");
    if (kind == Kind::kCompressDefault) {
      expect(probes == 0, "compress-default makes zero lzss finder probes");
      expect(cycles > 0, "compress-default runs the hw cycle model");
    } else {
      expect(cycles == 0, "roundtrip-sw makes zero hw cycles");
      expect(probes > 0, "roundtrip-sw runs the lzss hash-chain finder");
    }
  }

  bool names_ok = true;
  std::vector<std::string> seen;
  for (const MetricDef& m : kEndToEnd) seen.emplace_back(m.name);
  for (const MetricDef& m : kPerLayer) seen.emplace_back(m.name);
  for (const std::string& name : seen) names_ok = names_ok && valid_metric_name(name);
  std::sort(seen.begin(), seen.end());
  expect(names_ok, "metric names use only letters, digits, '_', '.' and '-'");
  expect(std::adjacent_find(seen.begin(), seen.end()) == seen.end(), "metric names are unique");
  return failures == 0 ? 0 : 1;
}

void list_metrics() {
  const auto table = [](const MetricDef* t, std::size_t n) {
    std::string s;
    for (std::size_t k = 0; k < n; ++k)
      s += std::string(k ? ", " : "") + "{\"name\": \"" + t[k].name + "\", \"unit\": \"" +
           t[k].unit + "\"}";
    return s;
  };
  std::string w;
  for (const WorkloadDef& d : kWorkloads) w += std::string(w.empty() ? "" : ", ") + "\"" + d.name + "\"";
  std::printf("{\"workloads\": [%s], \"end_to_end\": [%s], \"per_layer\": [%s]}\n", w.c_str(),
              table(kEndToEnd, std::size(kEndToEnd)).c_str(),
              table(kPerLayer, std::size(kPerLayer)).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool self = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
        return argv[++i];
      };
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = std::stoi(value()) != 0;
      } else if (a == "--workdir") {
        opt.workdir = value();
      } else if (a == "--selftest") {
        self = true;
      } else if (a == "--list-metrics") {
        list_metrics();
        return 0;
      } else {
        throw std::invalid_argument("unknown argument " + a);
      }
    }
    if (!(opt.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
    std::filesystem::create_directories(opt.workdir);
    if (self) return selftest(opt);
    const auto w = std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                                [&](const WorkloadDef& d) { return opt.workload == d.name; });
    if (w != std::end(kWorkloads) && w->one_cpu) pin_to_one_cpu();

    const double probe_start = drift_probe_ms();
    Result res;
    if (opt.trace) {
      per_layer(opt, res);
    } else {
      end_to_end(opt, res);
    }
    print_result(opt, res, probe_start, drift_probe_ms());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lzssd_bench: %s\n", e.what());
    return 1;
  }
}
