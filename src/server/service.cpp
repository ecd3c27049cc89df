#include "server/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <thread>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/bitio.hpp"
#include "common/checksum.hpp"
#include "container/codec.hpp"
#include "container/format.hpp"
#include "container/scheduler.hpp"
#include "deflate/container.hpp"
#include "deflate/encoder.hpp"
#include "deflate/inflate.hpp"
#include "estimator/presets.hpp"
#include "fault/fault.hpp"
#include "hw/metrics.hpp"
#include "lzss/mf_encoder.hpp"
#include "lzss/raw_container.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/multi_engine.hpp"
#include "parallel/stripe.hpp"
#include "store/log_store.hpp"

namespace lzss::server {

namespace {

/// Deflate's largest window, 2^15 bytes: its distance codes and zlib's
/// CINFO field both stop there. Service::process caps the dictionary of
/// every request with Deflate output at this size.
constexpr unsigned kDeflateDictBits = 15;

/// The software encoder mirrors the hw model's knobs: same window, hash
/// spec, chain bound and insert policy, so backend choice changes search
/// strategy, never the dialect of the token stream.
core::MatchParams sw_params_for(const hw::HwConfig& cfg,
                                core::MatchFinderKind kind) noexcept {
  core::MatchParams p;
  p.window_bits = cfg.dict_bits;
  p.hash = cfg.hash;
  p.max_chain = cfg.max_chain;
  p.nice_length = cfg.nice_length;
  p.max_lazy = cfg.max_insert;
  p.finder = kind;
  return p;
}

/// The graceful-degradation payload: a container that carries @p input
/// without compression but still round-trips through the normal DECOMPRESS
/// path. zlib flavour = stored (BTYPE=00) blocks; raw flavour = an
/// all-literal token stream.
std::vector<std::uint8_t> fallback_container(std::span<const std::uint8_t> input,
                                             std::uint32_t adler, bool raw,
                                             const hw::HwConfig& cfg) {
  if (raw) {
    std::vector<core::Token> literals;
    literals.reserve(input.size());
    for (const std::uint8_t b : input) literals.push_back(core::Token::literal(b));
    return core::raw_container_pack(literals, cfg.dict_bits, input.size());
  }
  bits::BitWriter w;
  constexpr std::size_t kStoredMax = 65535;  // LEN is 16 bits
  std::size_t off = 0;
  do {
    const std::size_t n = std::min(kStoredMax, input.size() - off);
    deflate::write_stored_block(w, input.subspan(off, n), off + n == input.size());
    off += n;
  } while (off < input.size());
  return deflate::zlib_wrap(w.take(), adler, cfg.dict_bits);
}

}  // namespace

const char* match_backend_name(MatchBackend backend) noexcept {
  switch (backend) {
    case MatchBackend::kHw: return "hw";
    case MatchBackend::kHashChain: return "hashchain";
    case MatchBackend::kSuffixArray: return "suffixarray";
    case MatchBackend::kGreedy: return "greedy";
    case MatchBackend::kAuto: return "auto";
  }
  return "?";
}

bool parse_match_backend(std::string_view name, MatchBackend& out) noexcept {
  if (name == "hw") {
    out = MatchBackend::kHw;
  } else if (name == "auto") {
    out = MatchBackend::kAuto;
  } else {
    core::MatchFinderKind kind;
    if (!core::parse_finder_name(name, kind)) return false;
    out = static_cast<MatchBackend>(static_cast<std::uint8_t>(kind) + 1);
  }
  return true;
}

void ServiceConfig::validate() const {
  if (workers == 0) throw std::invalid_argument("ServiceConfig: zero workers");
  if (queue_depth == 0) throw std::invalid_argument("ServiceConfig: zero queue depth");
  if (large_engines == 0) throw std::invalid_argument("ServiceConfig: zero large_engines");
  if (block_bytes == 0) throw std::invalid_argument("ServiceConfig: zero block_bytes");
  if (block_bytes > kMaxPayload)
    throw std::invalid_argument("ServiceConfig: block_bytes exceeds the protocol cap");
  if (max_payload > kMaxPayload)
    throw std::invalid_argument("ServiceConfig: max_payload exceeds the protocol cap");
  if (!(stored_fallback_ratio > 0.0))
    throw std::invalid_argument("ServiceConfig: stored_fallback_ratio must be positive");
  hw.validate();
}

std::string ServiceStats::render() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line), "%-11s %9s %9s %9s %9s %12s %12s %8s %8s\n", "opcode",
                "requests", "ok", "busy", "errors", "bytes_in", "bytes_out", "p50_us", "p99_us");
  out += line;
  for (std::size_t i = 0; i < per_opcode.size(); ++i) {
    const OpcodeCounters& c = per_opcode[i];
    std::snprintf(line, sizeof(line),
                  "%-11s %9llu %9llu %9llu %9llu %12llu %12llu %8llu %8llu\n",
                  opcode_name(static_cast<Opcode>(i)),
                  static_cast<unsigned long long>(c.requests),
                  static_cast<unsigned long long>(c.ok),
                  static_cast<unsigned long long>(c.busy),
                  static_cast<unsigned long long>(c.errors),
                  static_cast<unsigned long long>(c.bytes_in),
                  static_cast<unsigned long long>(c.bytes_out),
                  static_cast<unsigned long long>(c.p50_us),
                  static_cast<unsigned long long>(c.p99_us));
    out += line;
  }
  std::snprintf(line, sizeof(line), "queue high water: %llu\n",
                static_cast<unsigned long long>(queue_high_water));
  out += line;
  std::snprintf(line, sizeof(line), "deadline exceeded: %llu\n",
                static_cast<unsigned long long>(deadline_exceeded));
  out += line;
  std::snprintf(line, sizeof(line), "fallbacks: %llu\n",
                static_cast<unsigned long long>(fallbacks));
  out += line;
  std::snprintf(line, sizeof(line), "workers respawned: %llu\n",
                static_cast<unsigned long long>(workers_respawned));
  out += line;
  std::snprintf(line, sizeof(line), "latency samples: %llu\n",
                static_cast<unsigned long long>(latency_samples));
  out += line;
  return out;
}

std::string ServiceStats::to_json() const {
  std::string out = "{\"opcodes\":{";
  char buf[256];
  for (std::size_t i = 0; i < per_opcode.size(); ++i) {
    const OpcodeCounters& c = per_opcode[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"requests\":%llu,\"ok\":%llu,\"busy\":%llu,\"errors\":%llu,"
                  "\"bytes_in\":%llu,\"bytes_out\":%llu,\"p50_us\":%llu,\"p99_us\":%llu}",
                  i == 0 ? "" : ",", opcode_name(static_cast<Opcode>(i)),
                  static_cast<unsigned long long>(c.requests),
                  static_cast<unsigned long long>(c.ok),
                  static_cast<unsigned long long>(c.busy),
                  static_cast<unsigned long long>(c.errors),
                  static_cast<unsigned long long>(c.bytes_in),
                  static_cast<unsigned long long>(c.bytes_out),
                  static_cast<unsigned long long>(c.p50_us),
                  static_cast<unsigned long long>(c.p99_us));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "},\"queue_high_water\":%llu,\"deadline_exceeded\":%llu,\"fallbacks\":%llu,"
                "\"workers_respawned\":%llu,\"latency_samples\":%llu}",
                static_cast<unsigned long long>(queue_high_water),
                static_cast<unsigned long long>(deadline_exceeded),
                static_cast<unsigned long long>(fallbacks),
                static_cast<unsigned long long>(workers_respawned),
                static_cast<unsigned long long>(latency_samples));
  out += buf;
  return out;
}

Service::Service(ServiceConfig config) : cfg_(std::move(config)) {
  cfg_.validate();
  if (cfg_.registry != nullptr) {
    registry_ = cfg_.registry;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  trace_ = cfg_.trace;
  events_ = cfg_.events;
  bind_metrics();
  {
    const std::lock_guard<std::mutex> lock(workers_mutex_);
    workers_.reserve(cfg_.workers);
    for (unsigned i = 0; i < cfg_.workers; ++i) spawn_worker_locked();
  }
  if (cfg_.request_timeout_ms != 0 || cfg_.hung_worker_ms != 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

Service::~Service() { stop(); }

void Service::spawn_worker_locked() {
  auto worker = std::make_unique<Worker>();
  Worker* raw = worker.get();
  workers_.push_back(std::move(worker));
  raw->thread = std::thread([this, raw] { worker_loop(raw); });
}

void Service::stop() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();

  std::vector<std::thread> threads;
  {
    const std::lock_guard<std::mutex> lock(workers_mutex_);
    for (auto& w : workers_) {
      if (w->thread.joinable()) threads.push_back(std::move(w->thread));
    }
  }
  for (auto& t : threads) t.join();

  // Rescue pass: jobs can only survive the drain when every worker died with
  // the watchdog disabled (kill faults). They still get a typed answer.
  std::vector<JobPtr> leftovers;
  {
    const std::lock_guard<std::mutex> lock(workers_mutex_);
    for (auto& w : workers_) {
      if (w->current) leftovers.push_back(std::move(w->current));
    }
    workers_.clear();
  }
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    for (auto& j : queue_) leftovers.push_back(std::move(j));
    queue_.clear();
    queue_depth_g_->set(0);
  }
  if (events_ != nullptr && !leftovers.empty()) {
    events_->emit(obs::EventLevel::kWarn, "service", "drain_rescue",
                  {obs::EventLog::num("jobs", static_cast<std::int64_t>(leftovers.size()))});
  }
  for (auto& j : leftovers) {
    ResponseFrame resp;
    resp.status = Status::kInternal;
    deliver(j, std::move(resp));
  }
}

Service::RequestTrace Service::begin_trace(const RequestFrame& request) noexcept {
  RequestTrace rt;
  if (trace_ == nullptr) return rt;
  std::uint64_t id = request.trace_id;  // a client-sent id always wins
  if (id == 0) {
    if (cfg_.trace_sample == 0 ||
        trace_seq_.fetch_add(1, std::memory_order_relaxed) % cfg_.trace_sample != 0)
      return rt;
    id = obs::next_trace_id();
  }
  rt.ctx = obs::TraceContext{id, 0};
  rt.root_span = obs::next_span_id();
  rt.start_us = obs::TraceRing::now_us();
  rt.wall_us = obs::TraceRing::wall_now_us();
  return rt;
}

void Service::submit(RequestFrame&& request, Completion done) {
  const Opcode op = request.opcode;
  const auto t0 = std::chrono::steady_clock::now();
  const RequestTrace rt = begin_trace(request);

  if (op == Opcode::kPing || op == Opcode::kStats) {
    // Control plane: answered inline so health checks and observability keep
    // working while the data-plane queue is saturated.
    ResponseFrame resp;
    resp.id = request.id;
    resp.flags = request.flags;
    if (op == Opcode::kStats) {
      const std::string text = stats_json();
      resp.payload.assign(text.begin(), text.end());
    }
    finish(op, request, resp, t0, rt, done);
    return;
  }

  try {
    fault::point("server.queue.ingress");
  } catch (const std::exception&) {
    ResponseFrame resp;
    resp.id = request.id;
    resp.flags = request.flags;
    resp.status = Status::kInternal;
    finish(op, request, resp, t0, rt, done);
    return;
  }

  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (!stopping_ && queue_.size() < cfg_.queue_depth) {
      auto job = std::make_shared<Job>();
      job->request = std::move(request);
      job->done = std::move(done);
      job->enqueued_at = t0;
      job->trace = rt;
      queue_.push_back(std::move(job));
      queue_high_water_ = std::max<std::uint64_t>(queue_high_water_, queue_.size());
      queue_depth_g_->set(static_cast<std::int64_t>(queue_.size()));
      queue_high_water_g_->set(static_cast<std::int64_t>(queue_high_water_));
      lock.unlock();
      queue_cv_.notify_one();
      return;
    }
  }

  // Queue full (or service stopping): reject-with-BUSY, the software twin of
  // de-asserting `ready` on a valid/ready link. Counting happens in finish()
  // like every other response, so requests == ok + busy + errors holds.
  ResponseFrame busy;
  busy.id = request.id;
  busy.flags = request.flags;
  busy.status = Status::kBusy;
  finish(op, request, busy, t0, rt, done);
}

bool Service::expired(const Job& job, std::chrono::steady_clock::time_point now) const noexcept {
  return cfg_.request_timeout_ms != 0 &&
         now - job.enqueued_at > std::chrono::milliseconds(cfg_.request_timeout_ms);
}

void Service::worker_loop(Worker* self) {
  // Each worker owns one long-lived model instance for the default config;
  // compress() resets all architectural state per request.
  hw::Compressor compressor(cfg_.hw);
  for (;;) {
    JobPtr job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] {
        return stopping_ || self->poisoned.load(std::memory_order_relaxed) || !queue_.empty();
      });
      if (self->poisoned.load(std::memory_order_relaxed)) break;
      if (queue_.empty()) break;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_g_->set(static_cast<std::int64_t>(queue_.size()));
    }

    const auto now = std::chrono::steady_clock::now();
    queue_wait_us_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - job->enqueued_at)
            .count()));
    if (expired(*job, now)) {
      // Expired while queued and the reaper has not got to it yet: refuse to
      // burn worker time on a request the client has already given up on.
      ResponseFrame resp;
      resp.status = Status::kDeadlineExceeded;
      deliver(job, std::move(resp));
      continue;
    }

    {
      const std::lock_guard<std::mutex> lock(workers_mutex_);
      self->current = job;
      self->busy_since = now;
    }

    ResponseFrame resp;
    bool killed = false;
    const bool internal = static_cast<bool>(job->block_work);
    workers_busy_g_->add(1);
    {
      // Re-root this thread under the request's trace so the opcode span —
      // and everything nested (block fan-out, store append/fsync, engine
      // work) — parents into the request tree. Inactive contexts are
      // harmless: spans still record, just flat.
      const obs::TraceScope trace_scope(
          obs::TraceContext{job->trace.ctx.trace_id, job->trace.root_span});
      obs::Span span(trace_, internal ? "container_block_job"
                                      : opcode_name(job->request.opcode));
      try {
        fault::point("server.worker.pre_compress");
        if (internal) {
          // Container sub-job: drains block claims from a parent request's
          // fan-out on this worker's engine. No response — the parent
          // assembles and answers; a throw here just hands the claimed
          // block back (ClaimGuard) for the parent to re-run.
          job->block_work(compressor);
        } else {
          resp = process(job->request, compressor);
        }
      } catch (const fault::WorkerKill&) {
        killed = true;
      } catch (const std::exception&) {
        resp.status = Status::kInternal;
      }
      span.set_tag(killed ? "killed" : (internal ? "done" : status_name(resp.status)));
      span.set_args(static_cast<std::int64_t>(job->request.payload.size()),
                    static_cast<std::int64_t>(resp.payload.size()));
    }
    workers_busy_g_->add(-1);
    worker_busy_us_->add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - now)
            .count()));

    if (killed) {
      // Simulated crash: exit without answering and leave `current` set so
      // the watchdog can find the orphan, answer it, and respawn us.
      self->exited.store(true);
      return;
    }

    {
      const std::lock_guard<std::mutex> lock(workers_mutex_);
      self->current.reset();
    }
    deliver(job, std::move(resp));
    if (self->poisoned.load(std::memory_order_relaxed)) break;
  }
  self->exited.store(true);
}

void Service::watchdog_loop() {
  using std::chrono::milliseconds;
  const std::uint32_t timeout = cfg_.request_timeout_ms;
  const std::uint32_t hung = cfg_.hung_worker_ms;
  std::uint32_t tick = std::numeric_limits<std::uint32_t>::max();
  if (timeout != 0) tick = std::min(tick, std::max(1u, timeout / 4));
  if (hung != 0) tick = std::min(tick, std::max(1u, hung / 4));

  for (;;) {
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      watchdog_cv_.wait_for(lock, milliseconds(tick), [&] { return stopping_; });
      if (stopping_) return;
    }
    const auto now = std::chrono::steady_clock::now();

    // 1) Reap queue entries that blew their deadline before dispatch.
    std::vector<JobPtr> reaped;
    if (timeout != 0) {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      for (auto it = queue_.begin(); it != queue_.end();) {
        if (expired(**it, now)) {
          reaped.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      queue_depth_g_->set(static_cast<std::int64_t>(queue_.size()));
    }
    for (auto& job : reaped) {
      ResponseFrame resp;
      resp.status = Status::kDeadlineExceeded;
      deliver(job, std::move(resp));
    }

    // 2) Sweep the pool: rescue orphans of dead workers, poison hung ones,
    //    respawn replacements, and join finished zombies. Deliveries happen
    //    after the lock is released.
    std::vector<std::pair<JobPtr, Status>> orphans;
    std::vector<std::thread> to_join;
    std::size_t dead_respawns = 0, hung_respawns = 0;
    {
      const std::lock_guard<std::mutex> lock(workers_mutex_);
      // Iterate by index over the pre-sweep size: spawn_worker_locked()
      // push_backs into workers_ and would invalidate range-for iterators.
      std::size_t respawns = 0;
      const std::size_t count = workers_.size();
      for (std::size_t i = 0; i < count; ++i) {
        Worker* w = workers_[i].get();
        if (w->exited.load() && w->current) {
          // The worker thread died mid-request (simulated crash).
          orphans.emplace_back(std::move(w->current), Status::kInternal);
          w->current.reset();
          respawns_c_->add(1);
          ++respawns;
          ++dead_respawns;
        } else if (hung != 0 && !w->exited.load() && !w->poisoned.load() && w->current &&
                   now - w->busy_since > milliseconds(hung)) {
          // Stuck past the threshold: answer its request now, poison it so it
          // exits when (if) it ever finishes, and backfill the pool slot.
          orphans.emplace_back(w->current, Status::kDeadlineExceeded);
          w->poisoned.store(true);
          respawns_c_->add(1);
          ++respawns;
          ++hung_respawns;
        }
        if (w->exited.load() && !w->current && w->thread.joinable()) {
          to_join.push_back(std::move(w->thread));
        }
      }
      std::erase_if(workers_, [](const std::unique_ptr<Worker>& w) {
        return w->exited.load() && !w->current && !w->thread.joinable();
      });
      for (std::size_t i = 0; i < respawns; ++i) spawn_worker_locked();
    }
    for (auto& t : to_join) t.join();
    if (events_ != nullptr) {
      if (dead_respawns != 0)
        events_->emit(obs::EventLevel::kError, "service", "worker_respawned",
                      {obs::EventLog::str("reason", "dead"),
                       obs::EventLog::num("count", static_cast<std::int64_t>(dead_respawns))});
      if (hung_respawns != 0)
        events_->emit(obs::EventLevel::kWarn, "service", "worker_respawned",
                      {obs::EventLog::str("reason", "hung"),
                       obs::EventLog::num("count", static_cast<std::int64_t>(hung_respawns))});
    }
    for (auto& [job, status] : orphans) {
      ResponseFrame resp;
      resp.status = status;
      deliver(job, std::move(resp));
    }
  }
}

void Service::deliver(const JobPtr& job, ResponseFrame&& response) {
  bool expected = false;
  if (!job->answered.compare_exchange_strong(expected, true)) return;  // lost the race
  // Internal container sub-jobs answer nobody: the parent request owns the
  // client response, and the fan-out's claim pool already re-runs any block
  // a reaped/orphaned helper left behind. Dropping here keeps the per-opcode
  // invariant (requests == ok + busy + errors) about *client* requests only.
  if (job->block_work) return;
  response.id = job->request.id;
  response.flags = job->request.flags;
  if (response.status == Status::kDeadlineExceeded) deadline_c_->add(1);
  finish(job->request.opcode, job->request, response, job->enqueued_at, job->trace,
         job->done);
}

ResponseFrame Service::process(RequestFrame& request, hw::Compressor& compressor) {
  if (request.payload.size() > cfg_.max_payload) {
    ResponseFrame resp;
    resp.status = Status::kTooLarge;
    return resp;
  }

  // Resolve the preset: 0 = service default, 1..N = estimator preset ladder.
  const std::uint8_t preset_id = preset_of_flags(request.flags);
  const hw::HwConfig* cfg = &cfg_.hw;
  hw::HwConfig preset_cfg;
  if (preset_id != 0) {
    const auto presets = est::standard_presets();
    if (preset_id > presets.size()) {
      ResponseFrame resp;
      resp.status = Status::kUnsupported;
      return resp;
    }
    preset_cfg = presets[preset_id - 1].config;
    cfg = &preset_cfg;
  }

  if (request.opcode == Opcode::kLogAppend) return do_log_append(request);
  if (request.opcode == Opcode::kLogRead) return do_log_read(request);
  if (request.opcode == Opcode::kScrub) return do_scrub(request);
  if (request.opcode == Opcode::kVerify) return do_verify(request);
  if (request.opcode == Opcode::kDecompress) return do_decompress(request);

  // Deflate distance codes reach 32 KiB back, so a larger dictionary only
  // finds matches the Deflate writers refuse (the request would fall back to
  // stored blocks). Deflate output searches a 32 KiB window; LZS1 raw output
  // keeps the full dictionary.
  const bool deflate_output = request.opcode == Opcode::kCompressBlocked ||
                              (request.flags & kFlagRawContainer) == 0;
  if (deflate_output && cfg->dict_bits > kDeflateDictBits) {
    preset_cfg = *cfg;
    preset_cfg.dict_bits = kDeflateDictBits;
    cfg = &preset_cfg;
  }
  hw::Compressor* engine = cfg == &cfg_.hw ? &compressor : nullptr;
  if (request.opcode == Opcode::kCompressBlocked)
    return do_compress_blocked(request, *cfg, engine);
  return do_compress(request, *cfg, engine);
}

ResponseFrame Service::do_log_append(const RequestFrame& request) {
  ResponseFrame resp;
  if (store_ == nullptr) {
    resp.status = Status::kUnsupported;
    return resp;
  }
  try {
    const std::uint64_t seq = store_->append(request.payload);
    resp.adler = checksum::adler32(request.payload);
    for (int i = 0; i < 8; ++i)
      resp.payload.push_back(static_cast<std::uint8_t>(seq >> (8 * i)));
  } catch (const store::IoError&) {
    // Disk failure: the record was NOT appended (LogStore's contract) — the
    // client may retry without creating a duplicate.
    resp.status = Status::kInternal;
  } catch (const store::StoreError&) {
    resp.status = Status::kBadRequest;
  }
  return resp;
}

ResponseFrame Service::do_log_read(const RequestFrame& request) {
  ResponseFrame resp;
  if (store_ == nullptr) {
    resp.status = Status::kUnsupported;
    return resp;
  }
  if (request.payload.size() != 8) {
    resp.status = Status::kBadRequest;
    return resp;
  }
  std::uint64_t seq = 0;
  for (int i = 7; i >= 0; --i) seq = (seq << 8) | request.payload[static_cast<std::size_t>(i)];
  try {
    resp.payload = store_->read(seq);
    resp.adler = checksum::adler32(resp.payload);
  } catch (const store::StoreError& e) {
    resp.status = e.kind() == store::StoreError::Kind::kNotFound ? Status::kBadRequest
                                                                 : Status::kCorrupt;
  } catch (const store::IoError&) {
    resp.status = Status::kInternal;
  }
  return resp;
}

ResponseFrame Service::do_scrub(const RequestFrame& request) {
  // Online integrity walk. Corruption is *data* here, not a failure: a scrub
  // that finds damage quarantines it in the store and reports the tally with
  // OK — the server must stay useful while the archive degrades. Only a
  // malformed request (or no store) earns an error status.
  ResponseFrame resp;
  if (store_ == nullptr) {
    resp.status = Status::kUnsupported;
    return resp;
  }
  std::vector<std::uint64_t> ids;
  if (request.payload.empty()) {
    ids = store_->sealed_segment_ids();
  } else if (request.payload.size() == 8) {
    std::uint64_t id = 0;
    for (int i = 7; i >= 0; --i) id = (id << 8) | request.payload[static_cast<std::size_t>(i)];
    ids.push_back(id);
  } else {
    resp.status = Status::kBadRequest;
    return resp;
  }
  std::uint64_t segments = 0, records = 0, bytes = 0, errors = 0, new_gaps = 0, skipped = 0;
  for (const std::uint64_t id : ids) {
    try {
      const store::ScrubReport report = store_->scrub_segment(id);
      ++segments;
      records += report.records;
      bytes += report.bytes;
      errors += report.errors;
      new_gaps += report.new_gaps;
    } catch (const store::StoreError& e) {
      if (request.payload.size() == 8) {
        // A directly named segment that is missing or is the active tail is
        // the client's mistake, not archive damage.
        resp.status = Status::kBadRequest;
        return resp;
      }
      // Walking "all": retention may have deleted the segment between the id
      // snapshot and the scrub; the walk just moves on.
      (void)e;
      ++skipped;
    }
  }
  std::string json = "{\"segments\":" + std::to_string(segments);
  json += ",\"records\":" + std::to_string(records);
  json += ",\"bytes\":" + std::to_string(bytes);
  json += ",\"errors\":" + std::to_string(errors);
  json += ",\"new_gaps\":" + std::to_string(new_gaps);
  json += ",\"skipped\":" + std::to_string(skipped);
  json += ",\"clean\":";
  json += (errors == 0 && new_gaps == 0) ? "true" : "false";
  json += "}";
  resp.payload.assign(json.begin(), json.end());
  resp.adler = checksum::adler32(resp.payload);
  return resp;
}

ResponseFrame Service::do_verify(const RequestFrame& request) {
  // Checksum-only verification: same decode paths as DECOMPRESS, but the
  // reconstructed bytes never travel back — only a JSON verdict does. Like
  // SCRUB, damage is reported with OK; error statuses are reserved for
  // malformed requests and policy limits (decompression bombs).
  ResponseFrame resp;

  if ((request.flags & kFlagVerifyStore) != 0) {
    // Stored-record-range mode: payload = two LE u64 (first sequence, count).
    if (store_ == nullptr) {
      resp.status = Status::kUnsupported;
      return resp;
    }
    if (request.payload.size() != 16) {
      resp.status = Status::kBadRequest;
      return resp;
    }
    std::uint64_t first = 0, count = 0;
    for (int i = 7; i >= 0; --i)
      first = (first << 8) | request.payload[static_cast<std::size_t>(i)];
    for (int i = 7; i >= 0; --i)
      count = (count << 8) | request.payload[static_cast<std::size_t>(8 + i)];
    constexpr std::uint64_t kMaxVerifyRecords = 65536;
    if (count == 0 || count > kMaxVerifyRecords) {
      resp.status = Status::kBadRequest;
      return resp;
    }
    const std::vector<store::RecordVerdict> verdicts = store_->verify_range(first, count);
    std::uint64_t ok = 0, gap = 0, not_found = 0, corrupt = 0;
    std::string marks;
    marks.reserve(verdicts.size());
    for (const store::RecordVerdict v : verdicts) {
      switch (v) {
        case store::RecordVerdict::kOk: ++ok; marks.push_back('.'); break;
        case store::RecordVerdict::kGap: ++gap; marks.push_back('g'); break;
        case store::RecordVerdict::kNotFound: ++not_found; marks.push_back('?'); break;
        case store::RecordVerdict::kCorrupt: ++corrupt; marks.push_back('X'); break;
      }
    }
    std::string json = "{\"mode\":\"store\",\"first\":" + std::to_string(first);
    json += ",\"count\":" + std::to_string(count);
    json += ",\"ok\":" + std::to_string(ok);
    json += ",\"gap\":" + std::to_string(gap);
    json += ",\"not_found\":" + std::to_string(not_found);
    json += ",\"corrupt\":" + std::to_string(corrupt);
    json += ",\"clean\":";
    json += (corrupt == 0 && gap == 0) ? "true" : "false";
    json += ",\"verdicts\":\"" + marks + "\"}";
    resp.payload.assign(json.begin(), json.end());
    resp.adler = checksum::adler32(resp.payload);
    return resp;
  }

  // Container mode: the payload is an LZBC / zlib / raw-LZS1 container.
  if (request.payload.empty()) {
    resp.status = Status::kBadRequest;
    return resp;
  }
  const char* format = "zlib";
  std::uint64_t blocks = 1, corrupt_blocks = 0, raw_bytes = 0;
  std::uint32_t content_adler = 0;
  bool parse_error = false;
  std::string marks;
  if (container::looks_like_container(request.payload)) {
    format = "lzbc";
    container::SuperframeView view;
    try {
      view = container::parse(request.payload, cfg_.max_payload);
    } catch (const container::ContainerError& e) {
      if (e.kind() == container::ContainerError::Kind::kTooLarge) {
        resp.status = Status::kTooLarge;
        return resp;
      }
      parse_error = true;
    }
    if (!parse_error) {
      // Per-block verdicts: decode every block into a scratch slice and keep
      // going past failures — VERIFY maps the damage instead of bailing at
      // the first bad block the way DECOMPRESS does.
      blocks = view.blocks.size();
      std::vector<std::uint8_t> output(static_cast<std::size_t>(view.raw_total));
      marks.reserve(view.blocks.size());
      for (const container::BlockView& b : view.blocks) {
        try {
          container::decode_block(
              b, std::span<std::uint8_t>(output).subspan(b.raw_offset, b.raw_len));
          marks.push_back('.');
        } catch (const std::exception&) {
          ++corrupt_blocks;
          marks.push_back('X');
        }
      }
      raw_bytes = view.raw_total;
      if (corrupt_blocks == 0) content_adler = checksum::adler32(output);
    } else {
      blocks = 0;
    }
  } else {
    const bool raw = (request.flags & kFlagRawContainer) != 0;
    format = raw ? "raw" : "zlib";
    try {
      const std::vector<std::uint8_t> output =
          raw ? core::raw_container_unpack(request.payload)
              : deflate::zlib_decompress(request.payload, cfg_.max_payload);
      if (output.size() > cfg_.max_payload) {
        resp.status = Status::kTooLarge;
        return resp;
      }
      raw_bytes = output.size();
      content_adler = checksum::adler32(output);
      marks.push_back('.');
    } catch (const deflate::InflateBombError&) {
      resp.status = Status::kTooLarge;
      return resp;
    } catch (const std::exception&) {
      corrupt_blocks = 1;
      marks.push_back('X');
    }
  }
  const bool clean = !parse_error && corrupt_blocks == 0;
  std::string json = "{\"mode\":\"container\",\"format\":\"";
  json += format;
  json += "\",\"blocks\":" + std::to_string(blocks);
  json += ",\"corrupt\":" + std::to_string(corrupt_blocks);
  json += ",\"parse_error\":";
  json += parse_error ? "true" : "false";
  json += ",\"raw_bytes\":" + std::to_string(raw_bytes);
  json += ",\"clean\":";
  json += clean ? "true" : "false";
  json += ",\"verdicts\":\"" + marks + "\"}";
  resp.payload.assign(json.begin(), json.end());
  // The adler field keeps the DECOMPRESS convention — checksum of the
  // reconstructed content — so a clean VERIFY lets the client match the
  // container against a known original without any payload coming back.
  resp.adler = clean ? content_adler : checksum::adler32(resp.payload);
  return resp;
}

ResponseFrame Service::do_compress(const RequestFrame& request, const hw::HwConfig& cfg,
                                   hw::Compressor* default_compressor) {
  const std::span<const std::uint8_t> input(request.payload);
  ResponseFrame resp;
  resp.adler = checksum::adler32(input);

  const bool raw = (request.flags & kFlagRawContainer) != 0;
  const bool large = input.size() >= cfg_.large_threshold;

  // Resolve the match pipeline: flags bits 3..5 pin a backend per request
  // (1 = hw, 2.. = MatchFinderKind + 2); selector 0 defers to the service
  // policy, where kAuto classes by payload size (docs/MATCHFINDER.md).
  const std::uint8_t selector = matchfinder_of_flags(request.flags);
  if (selector > 4) {
    resp.status = Status::kUnsupported;
    return resp;
  }
  bool use_sw = false;
  core::MatchFinderKind kind = core::MatchFinderKind::kHashChain;
  if (selector >= 2) {
    use_sw = true;
    kind = static_cast<core::MatchFinderKind>(selector - 2);
  } else if (selector == 0) {
    switch (cfg_.match_backend) {
      case MatchBackend::kHw:
        break;
      case MatchBackend::kHashChain:
      case MatchBackend::kSuffixArray:
      case MatchBackend::kGreedy:
        use_sw = true;
        kind = static_cast<core::MatchFinderKind>(
            static_cast<std::uint8_t>(cfg_.match_backend) - 1);
        break;
      case MatchBackend::kAuto:
        if (large) break;  // large payloads keep the striped hw engines
        use_sw = true;
        kind = input.size() < cfg_.small_threshold ? core::MatchFinderKind::kGreedy
                                                   : core::MatchFinderKind::kHashChain;
        break;
    }
  }

  hw::CycleStats census;
  try {
    fault::point("server.worker.compress");
    if (use_sw) {
      core::MatchFinderEncoder encoder(sw_params_for(cfg, kind));
      const std::vector<core::Token> tokens = encoder.encode(input);
      const core::FinderStats& fs = encoder.finder_stats();
      const FinderInstruments& fm = mf_[static_cast<std::size_t>(kind)];
      fm.requests->add(1);
      fm.bytes_in->add(input.size());
      fm.probes->add(fs.probes);
      fm.compare_bytes->add(fs.compare_bytes);
      if (raw) {
        resp.payload = core::raw_container_pack(tokens, cfg.dict_bits, input.size());
      } else {
        resp.payload = deflate::zlib_wrap_tokens(tokens, input, cfg.dict_bits,
                                                 deflate::BlockKind::kFixed);
      }
    } else if (!raw && large && !input.empty()) {
      // Large zlib requests stripe across a bank of engines whose stripes
      // fan out over the worker pool like container blocks; the stitched
      // multi-block Deflate stream wraps into one valid zlib container.
      const auto report = par::compress_multi_engine(
          cfg, input, cfg_.large_engines,
          [this](std::size_t stripes, const std::function<void(std::size_t)>& run_stripe) {
            fan_out(stripes, [&](std::size_t i, hw::Compressor*) { run_stripe(i); }, nullptr);
          });
      for (const auto& engine : report.engines) census += engine;
      resp.payload = deflate::zlib_wrap(report.deflate_stream, resp.adler, cfg.dict_bits);
    } else {
      // Small requests (and every raw-container request: that container
      // carries a single token stream) run on one model instance — the
      // worker's own when the request uses the service default config.
      std::vector<core::Token> tokens;
      if (default_compressor != nullptr) {
        auto result = default_compressor->compress(input);
        census = result.stats;
        tokens = std::move(result.tokens);
      } else {
        hw::Compressor ad_hoc(cfg);
        auto result = ad_hoc.compress(input);
        census = result.stats;
        tokens = std::move(result.tokens);
      }
      if (raw) {
        resp.payload = core::raw_container_pack(tokens, cfg.dict_bits, input.size());
      } else {
        resp.payload = deflate::zlib_wrap_tokens(tokens, input, cfg.dict_bits,
                                                 deflate::BlockKind::kFixed);
      }
    }
  } catch (const std::exception&) {
    // Graceful degradation: the model path failed, but a stored container
    // always round-trips — COMPRESS degrades instead of erroring. No census
    // export: a run that threw has no complete cycle accounting.
    resp.payload = fallback_container(input, resp.adler, raw, cfg);
    fallbacks_c_->add(1);
    return resp;
  }
  // The model ran to completion: fold its per-FSM-state cycle census (the
  // paper's fig. 5 categories) into the registry. Software backends have no
  // cycle model; their census lives in the matchfinder_* counters above.
  if (!use_sw) hw::export_cycle_stats(*registry_, census);

  // Ratio guard: a payload incompressible past the configured ratio degrades
  // to the stored form when that is actually smaller (GPULZ-style fallback).
  if (!input.empty() &&
      static_cast<double>(resp.payload.size()) >
          static_cast<double>(input.size()) * cfg_.stored_fallback_ratio) {
    auto stored = fallback_container(input, resp.adler, raw, cfg);
    if (stored.size() < resp.payload.size()) {
      resp.payload = std::move(stored);
      fallbacks_c_->add(1);
    }
  }
  return resp;
}

ResponseFrame Service::do_decompress(const RequestFrame& request) {
  // LZBC payloads take the symmetric block-parallel path; everything else
  // is a single-shot inflate. The magics are disjoint ("LZBC" vs "LZS1" vs
  // a zlib CMF byte), so sniffing cannot misroute a valid container.
  if (container::looks_like_container(request.payload))
    return do_decompress_blocked(request);
  ResponseFrame resp;
  const bool raw = (request.flags & kFlagRawContainer) != 0;
  try {
    resp.payload = raw ? core::raw_container_unpack(request.payload)
                       : deflate::zlib_decompress(request.payload, cfg_.max_payload);
  } catch (const deflate::InflateBombError&) {
    resp.status = Status::kTooLarge;
    resp.payload.clear();
    return resp;
  } catch (const std::exception&) {
    resp.status = Status::kCorrupt;
    resp.payload.clear();
    return resp;
  }
  if (resp.payload.size() > cfg_.max_payload) {
    resp.status = Status::kTooLarge;
    resp.payload.clear();
    return resp;
  }
  resp.adler = checksum::adler32(resp.payload);
  return resp;
}

ResponseFrame Service::do_compress_blocked(const RequestFrame& request, const hw::HwConfig& cfg,
                                           hw::Compressor* default_compressor) {
  const std::span<const std::uint8_t> input(request.payload);
  ResponseFrame resp;
  resp.adler = checksum::adler32(input);
  if ((request.flags & kFlagRawContainer) != 0) {
    // LZBC block payloads are deflate/stored; the raw-LZSS container has no
    // block form. Typed reject instead of a silently different container.
    resp.status = Status::kBadRequest;
    return resp;
  }

  const std::size_t block_bytes = par::clamp_block_bytes(cfg_.block_bytes, cfg.dict_size());
  const std::size_t blocks = container::block_count_for(input.size(), block_bytes);
  std::vector<std::vector<std::uint8_t>> records(blocks);
  const bool use_worker_engine = default_compressor != nullptr;

  // The per-block body; runs on the parent worker and on helper workers
  // concurrently (records[i] slots are disjoint). It never throws:
  // encode_block degrades to a stored record internally, so one bad block
  // can only cost ratio, never the request. The parent's trace context is
  // captured here (under the opcode span) and re-installed on whichever
  // thread runs the block, so helper-side spans join the request tree.
  const obs::TraceContext fanout_ctx = obs::current_trace();
  const container::BlockWork work = [&](std::size_t i, hw::Compressor* engine) {
    const auto t0 = std::chrono::steady_clock::now();
    const obs::TraceScope trace_scope(fanout_ctx);
    obs::Span span(trace_, "container_block");
    const std::size_t begin = i * block_bytes;
    const std::size_t len = std::min(block_bytes, input.size() - begin);
    auto result = [&] {
      obs::Span eng(trace_, "engine.encode");
      eng.set_args(static_cast<std::int64_t>(len));
      return container::encode_block(cfg, use_worker_engine ? engine : nullptr,
                                     input.subspan(begin, len));
    }();
    if (result.census_valid) hw::export_cycle_stats(*registry_, result.census);
    if (result.stored) block_fallbacks_c_->add(1);
    records[i] = std::move(result.record);
    blocks_compress_c_->add(1);
    block_lat_compress_us_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    span.set_tag("compress");
    span.set_args(static_cast<std::int64_t>(i), static_cast<std::int64_t>(len));
  };

  fan_out(blocks, work, default_compressor);

  std::size_t total = container::kSuperframeHeaderSize;
  for (const auto& r : records) total += r.size();
  resp.payload.reserve(total);
  container::append_superframe_header(resp.payload, static_cast<std::uint32_t>(block_bytes),
                                      static_cast<std::uint32_t>(blocks), input.size());
  for (const auto& r : records) resp.payload.insert(resp.payload.end(), r.begin(), r.end());
  return resp;
}

ResponseFrame Service::do_decompress_blocked(const RequestFrame& request) {
  ResponseFrame resp;
  container::SuperframeView view;
  try {
    // Full structural validation before any block work: raw_total is capped
    // by max_payload here, the superframe-level bomb guard.
    view = container::parse(request.payload, cfg_.max_payload);
  } catch (const container::ContainerError& e) {
    resp.status = e.kind() == container::ContainerError::Kind::kTooLarge ? Status::kTooLarge
                                                                         : Status::kCorrupt;
    return resp;
  }

  std::vector<std::uint8_t> output(static_cast<std::size_t>(view.raw_total));
  std::atomic<bool> block_failed{false};

  const obs::TraceContext fanout_ctx = obs::current_trace();
  const container::BlockWork work = [&](std::size_t i, hw::Compressor*) {
    if (block_failed.load(std::memory_order_relaxed)) return;  // request already lost
    const auto t0 = std::chrono::steady_clock::now();
    const obs::TraceScope trace_scope(fanout_ctx);
    obs::Span span(trace_, "container_block");
    const container::BlockView& b = view.blocks[i];
    bool ok = true;
    try {
      // Disjoint output slices: blocks from several workers land directly
      // in the preallocated payload, no reassembly copy.
      obs::Span eng(trace_, "engine.decode");
      eng.set_args(static_cast<std::int64_t>(b.raw_len));
      container::decode_block(b, std::span<std::uint8_t>(output).subspan(b.raw_offset, b.raw_len));
    } catch (const std::exception&) {
      // CRC mismatch, bad stream, or a per-block bomb: all corruption of
      // this block. The typed per-block error fails the whole request —
      // never a partial-success payload.
      ok = false;
      block_failed.store(true, std::memory_order_relaxed);
    }
    blocks_decompress_c_->add(1);
    block_lat_decompress_us_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    span.set_tag(ok ? "decompress" : "corrupt");
    span.set_args(static_cast<std::int64_t>(i), static_cast<std::int64_t>(b.raw_len));
  };

  fan_out(view.blocks.size(), work, nullptr);

  if (block_failed.load()) {
    resp.status = Status::kCorrupt;
    return resp;
  }
  resp.payload = std::move(output);
  resp.adler = checksum::adler32(resp.payload);
  return resp;
}

void Service::fan_out(std::size_t blocks, const container::BlockWork& work,
                      hw::Compressor* inline_engine) {
  struct WaiterGuard {
    obs::Gauge* g;
    explicit WaiterGuard(obs::Gauge* gauge) : g(gauge) { g->add(1); }
    ~WaiterGuard() { g->add(-1); }
  } waiter(reassembly_waiters_g_);
  const container::FanoutReport rep = container::run_fanout(
      blocks, cfg_.workers > 0 ? cfg_.workers - 1 : 0, work,
      [this](std::function<void(hw::Compressor&)> task) {
        return try_enqueue_helper(std::move(task));
      },
      inline_engine);
  helper_blocks_c_->add(rep.helper_blocks);
  helper_rejects_c_->add(rep.helpers_rejected);
  reassembly_wait_us_->record(rep.reassembly_wait_us);
}

bool Service::try_enqueue_helper(std::function<void(hw::Compressor&)> work) {
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    // Same bounded queue as client requests: a full queue refuses the
    // helper (per-block BUSY) and the parent absorbs the block itself.
    if (stopping_ || queue_.size() >= cfg_.queue_depth) return false;
    auto job = std::make_shared<Job>();
    job->block_work = std::move(work);
    job->enqueued_at = t0;
    queue_.push_back(std::move(job));
    queue_high_water_ = std::max<std::uint64_t>(queue_high_water_, queue_.size());
    queue_depth_g_->set(static_cast<std::int64_t>(queue_.size()));
    queue_high_water_g_->set(static_cast<std::int64_t>(queue_high_water_));
  }
  queue_cv_.notify_one();
  return true;
}

void Service::bind_metrics() {
  obs::Registry& r = *registry_;
  for (std::size_t i = 0; i < kOpcodeCount; ++i) {
    const char* op = opcode_name(static_cast<Opcode>(i));
    OpInstruments& m = opm_[i];
    m.requests = &r.counter("server_requests_total", {{"opcode", op}});
    m.ok = &r.counter("server_responses_total", {{"opcode", op}, {"status", "ok"}});
    m.busy = &r.counter("server_responses_total", {{"opcode", op}, {"status", "busy"}});
    m.errors = &r.counter("server_responses_total", {{"opcode", op}, {"status", "error"}});
    m.bytes_in = &r.counter("server_bytes_in_total", {{"opcode", op}});
    m.bytes_out = &r.counter("server_bytes_out_total", {{"opcode", op}});
    m.latency_us = &r.histogram("server_latency_us", {{"opcode", op}});
  }
  for (std::size_t i = 0; i < mf_.size(); ++i) {
    const char* backend = core::finder_name(static_cast<core::MatchFinderKind>(i));
    FinderInstruments& m = mf_[i];
    m.requests = &r.counter("matchfinder_requests_total", {{"backend", backend}});
    m.bytes_in = &r.counter("matchfinder_bytes_in_total", {{"backend", backend}});
    m.probes = &r.counter("matchfinder_probes_total", {{"backend", backend}});
    m.compare_bytes = &r.counter("matchfinder_compare_bytes_total", {{"backend", backend}});
  }
  queue_wait_us_ = &r.histogram("server_queue_wait_us");
  queue_depth_g_ = &r.gauge("server_queue_depth");
  queue_high_water_g_ = &r.gauge("server_queue_high_water");
  workers_busy_g_ = &r.gauge("server_workers_busy");
  worker_busy_us_ = &r.counter("server_worker_busy_us_total");
  deadline_c_ = &r.counter("server_deadline_exceeded_total");
  fallbacks_c_ = &r.counter("server_fallbacks_total");
  respawns_c_ = &r.counter("server_workers_respawned_total");
  blocks_compress_c_ = &r.counter("container_blocks_total", {{"op", "compress"}});
  blocks_decompress_c_ = &r.counter("container_blocks_total", {{"op", "decompress"}});
  block_lat_compress_us_ = &r.histogram("container_block_latency_us", {{"op", "compress"}});
  block_lat_decompress_us_ =
      &r.histogram("container_block_latency_us", {{"op", "decompress"}});
  reassembly_waiters_g_ = &r.gauge("container_reassembly_waiters");
  reassembly_wait_us_ = &r.histogram("container_reassembly_wait_us");
  helper_blocks_c_ = &r.counter("container_helper_blocks_total");
  helper_rejects_c_ = &r.counter("container_helper_rejects_total");
  block_fallbacks_c_ = &r.counter("container_block_fallbacks_total");
  // Pull-style mirror of the fault-injection trigger table: scraped at
  // snapshot time, so disarmed points cost nothing on the request path.
  // Capture-less on purpose — the collector may outlive this service when
  // the registry is shared.
  r.add_collector([](obs::Snapshot& snap) {
    for (const char* point : fault::all_points()) {
      snap.add_counter_sample("fault_point_visits_total", {{"point", point}},
                              fault::visits(point));
      snap.add_counter_sample("fault_point_triggers_total", {{"point", point}},
                              fault::triggers(point));
    }
  });
}

void Service::finish(Opcode op, const RequestFrame& request, ResponseFrame& response,
                     std::chrono::steady_clock::time_point t0, const RequestTrace& rt,
                     const Completion& done) {
  try {
    fault::point("server.response.egress");
  } catch (...) {
    // Even a failing egress path must answer: degrade to a typed error.
    response.payload.clear();
    response.status = Status::kInternal;
  }
  // The single classification point: every response — inline reject, worker,
  // watchdog, or drain rescue — lands here exactly once, so per opcode
  // requests == ok + busy + errors always holds. BUSY rejects never accepted
  // the payload and never ran, so they contribute no bytes and no latency
  // sample.
  const OpInstruments& m = opm_[static_cast<std::size_t>(op)];
  m.requests->add(1);
  if (response.status == Status::kOk) {
    m.ok->add(1);
  } else if (response.status == Status::kBusy) {
    m.busy->add(1);
  } else {
    m.errors->add(1);
  }
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  const std::uint64_t latency_us = static_cast<std::uint64_t>(std::max<long long>(micros, 0));
  if (response.status != Status::kBusy) {
    m.bytes_in->add(request.payload.size());
    m.bytes_out->add(response.payload.size());
    m.latency_us->record(latency_us);
  }
  // Echo the trace id so the client can print (and fetch) its own trace;
  // encode_response only puts it on the wire when the echoed flags carry
  // kFlagTraced, so untraced peers see byte-identical responses.
  response.trace_id = rt.ctx.active() ? rt.ctx.trace_id : request.trace_id;
  if (trace_ != nullptr && rt.ctx.active()) {
    // Close the request-root span. Child spans (opcode, block fan-out,
    // store, engine) are recorded by their own destructors before the
    // response is delivered, so the tree is complete in the ring by now.
    obs::TraceEvent root;
    root.trace_id = rt.ctx.trace_id;
    root.span_id = rt.root_span;
    root.parent_id = 0;
    root.start_us = rt.start_us;
    root.end_us = obs::TraceRing::now_us();
    root.wall_us = rt.wall_us;
    root.tid = static_cast<std::uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    std::snprintf(root.name, sizeof(root.name), "request.%s", opcode_name(op));
    std::snprintf(root.tag, sizeof(root.tag), "%s", status_name(response.status));
    root.a0 = static_cast<std::int64_t>(request.payload.size());
    root.a1 = static_cast<std::int64_t>(response.payload.size());
    trace_->record(root);
    if (response.status != Status::kBusy) {
      m.latency_us->record_exemplar(latency_us, rt.ctx.trace_id);
      // Flight recorder: copy the whole tree of a slow request into the
      // keep-ring before the main ring's churn can overwrite it.
      if (cfg_.slow_trace != nullptr && cfg_.slow_trace_us != 0 &&
          latency_us >= cfg_.slow_trace_us) {
        trace_->copy_trace(rt.ctx.trace_id, *cfg_.slow_trace);
        if (events_ != nullptr) {
          char idbuf[20];
          std::snprintf(idbuf, sizeof(idbuf), "%016llx",
                        static_cast<unsigned long long>(rt.ctx.trace_id));
          events_->emit(obs::EventLevel::kWarn, "service", "slow_request",
                        {obs::EventLog::str("opcode", opcode_name(op)),
                         obs::EventLog::str("trace_id", idbuf),
                         obs::EventLog::num("latency_us",
                                            static_cast<std::int64_t>(latency_us))});
        }
      }
    }
  }
  done(std::move(response));
}

ServiceStats Service::snapshot() const {
  ServiceStats out;
  for (std::size_t i = 0; i < kOpcodeCount; ++i) {
    const OpInstruments& m = opm_[i];
    OpcodeCounters& c = out.per_opcode[i];
    c.requests = m.requests->value();
    c.ok = m.ok->value();
    c.busy = m.busy->value();
    c.errors = m.errors->value();
    c.bytes_in = m.bytes_in->value();
    c.bytes_out = m.bytes_out->value();
    const obs::Histogram::Merged lat = m.latency_us->merged();
    c.p50_us = lat.quantile(0.50);
    c.p99_us = lat.quantile(0.99);
    out.latency_samples += lat.count;
  }
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    out.queue_high_water = queue_high_water_;
  }
  out.deadline_exceeded = deadline_c_->value();
  out.fallbacks = fallbacks_c_->value();
  out.workers_respawned = respawns_c_->value();
  return out;
}

std::string Service::stats_json() const {
  std::string out = "{\"service\":";
  out += snapshot().to_json();
  out += ",\"metrics\":";
  out += registry_->snapshot().metrics_json_array();
  out += "}";
  return out;
}

}  // namespace lzss::server
