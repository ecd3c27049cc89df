// lzssd — the compression service daemon.
//
//   lzssd [options]
//     --port <p>          TCP port (default 5555; 0 picks an ephemeral port)
//     --engines <n>       data-plane worker threads, one hw model each (default 2)
//     --queue-depth <d>   bounded request queue; full => BUSY (default 64)
//     --preset <name>     service default config from the estimator ladder
//                         (speed | balanced | ratio | min-bram | baseline-2007)
//     --large-engines <n> stripes per large payload, run on the worker pool (default 4)
//     --threshold-kb <k>  payloads >= k KiB take the striped path (default 256)
//     --block-kb <k>      COMPRESS_BLOCKED block size in KiB; blocks fan out
//                         across the worker pool (default 256, docs/CONTAINER.md)
//     --request-timeout-ms <t>  per-request deadline; expired requests answer
//                               DEADLINE_EXCEEDED (0 = no deadline, default)
//     --hung-worker-ms <t>      watchdog threshold: a worker stuck on one
//                               request longer than this is poisoned and
//                               replaced (0 = watchdog off, default)
//     --store-dir <dir>         attach a durable log store: LOG_APPEND /
//                               LOG_READ persist records that survive
//                               daemon restarts (docs/STORE.md)
//     --store-fsync <policy>    never | interval | every-record
//                               (default every-record: an acked append
//                               survives power loss)
//     --store-segment-kb <k>    segment rotation threshold (default 4096)
//     --compact-trigger-garbage-pct <p>  background compaction: rewrite a
//                               sealed segment once quarantined garbage
//                               reaches p%% of its extent (0 = off, default)
//     --retain-max-bytes <b>    retention: delete oldest sealed segments
//                               while the archive exceeds b bytes (0 = off)
//     --retain-max-records <n>  ... or n records (0 = off)
//     --retain-max-age-s <s>    ... or the oldest segment is older than s
//                               seconds (0 = off)
//     --scrub-interval-s <s>    start an online integrity walk over sealed
//                               segments every s seconds (0 = off)
//     --maintenance-tick-ms <t> maintenance loop period (default 1000)
//     --max-conns <n>           open-connection ceiling; extra connects are
//                               shed at accept time (0 = unlimited, default)
//     --idle-timeout-ms <t>     evict connections idle this long (0 = never)
//     --read-timeout-ms <t>     evict when a started frame makes no parse
//                               progress for t ms — slow-loris defense
//                               (0 = never)
//     --write-stall-ms <t>      evict when pending response bytes see no send
//                               progress for t ms (0 = never)
//     --max-write-buf-kb <k>    hard cap on per-connection buffered response
//                               bytes; breaching evicts (0 = unlimited)
//     --inflight-budget-mb <m>  global cap on admitted-but-unfinished request
//                               payload bytes; excess bulky frames answer
//                               BUSY at the header (0 = unlimited)
//     --brownout-queue-wait-ms <t>  shed bulky opcodes while the recent
//                               queue-wait p99 exceeds t ms; STATS/SCRUB/
//                               VERIFY keep answering (0 = off)
//     --drain-deadline-ms <t>   on SIGINT/SIGTERM keep flushing in-flight
//                               responses up to t ms (default 2000; 0 =
//                               immediate shutdown)
//     --arm-fault <pt>=<act>    arm a fault point at startup for crash drills:
//                               act = throw | fire | kill | corrupt |
//                               delay:<ms> (docs/FAULTS.md; repeatable)
//     --metrics-dump            print the full metrics registry (Prometheus
//                               text exposition) on shutdown and on SIGUSR1
//     --trace-jsonl <path>      write the trace-span ring to <path> as JSONL
//                               on shutdown and on SIGUSR1
//     --http-port <p>           serve live telemetry over HTTP on 127.0.0.1:p
//                               (0 picks an ephemeral port, printed at start):
//                               GET /metrics /trace /trace/slow /events
//                               /healthz (docs/OBSERVABILITY.md)
//     --trace-sample <n>        trace every n-th request end to end (default
//                               16; 1 = every request, 0 = only requests that
//                               carry a client trace id)
//     --slow-trace-ms <t>       copy the span tree of any request slower than
//                               t ms into the keep-ring served at /trace/slow
//                               (0 = off, default)
//     --events-jsonl <path>     append structured events (evictions, brownout
//                               transitions, compaction/scrub verdicts,
//                               watchdog respawns) to <path> as JSONL
//
// Wire protocol: docs/SERVER.md. Stop with SIGINT/SIGTERM (clean drain);
// SIGUSR1 dumps telemetry from the live daemon without stopping it.
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "estimator/presets.hpp"
#include "fault/fault.hpp"
#include "obs/event_log.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/service.hpp"
#include "server/tcp.hpp"
#include "store/log_store.hpp"
#include "store/maintenance.hpp"

namespace {

lzss::server::TcpServer* g_server = nullptr;
std::atomic<bool> g_dump_requested{false};

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

void handle_dump_signal(int) { g_dump_requested.store(true); }

int usage() {
  std::fprintf(stderr,
               "usage: lzssd [--port p] [--engines n] [--queue-depth d] [--preset name]\n"
               "             [--matchfinder hw|hashchain|suffixarray|greedy|auto]\n"
               "             [--small-threshold-kb k]\n"
               "             [--large-engines n] [--threshold-kb k] [--block-kb k]\n"
               "             [--request-timeout-ms t] [--hung-worker-ms t]\n"
               "             [--store-dir dir] [--store-fsync policy] [--store-segment-kb k]\n"
               "             [--compact-trigger-garbage-pct p] [--retain-max-bytes b]\n"
               "             [--retain-max-records n] [--retain-max-age-s s]\n"
               "             [--scrub-interval-s s] [--maintenance-tick-ms t]\n"
               "             [--max-conns n] [--idle-timeout-ms t] [--read-timeout-ms t]\n"
               "             [--write-stall-ms t] [--max-write-buf-kb k]\n"
               "             [--inflight-budget-mb m] [--brownout-queue-wait-ms t]\n"
               "             [--drain-deadline-ms t]\n"
               "             [--arm-fault point=action[:ms]]\n"
               "             [--metrics-dump] [--trace-jsonl path]\n"
               "             [--http-port p] [--trace-sample n] [--slow-trace-ms t]\n"
               "             [--events-jsonl path]\n");
  return 2;
}

/// Parses "point=action[:ms]" and arms the point (probability 1, unlimited
/// triggers) — the crash-drill hook the smoke tests use to stage a fault in a
/// *live* daemon they are about to SIGKILL.
bool arm_fault_from_spec(const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  const std::string point = spec.substr(0, eq);
  std::string action = spec.substr(eq + 1);
  std::uint32_t ms = 0;
  if (const std::size_t colon = action.find(':'); colon != std::string::npos) {
    ms = static_cast<std::uint32_t>(std::atoi(action.c_str() + colon + 1));
    action = action.substr(0, colon);
  }
  lzss::fault::Spec fs;
  if (action == "throw") {
    fs.action = lzss::fault::Action::kThrow;
  } else if (action == "fire") {
    fs.action = lzss::fault::Action::kFire;
  } else if (action == "kill") {
    fs.action = lzss::fault::Action::kKillWorker;
  } else if (action == "corrupt") {
    fs.action = lzss::fault::Action::kCorrupt;
  } else if (action == "delay") {
    fs.action = lzss::fault::Action::kDelay;
    fs.delay_ms = ms;
  } else {
    return false;
  }
  lzss::fault::arm(point, fs);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lzss;

  server::ServiceConfig cfg;
  unsigned port = 5555;
  std::string preset = "speed";
  std::string store_dir;
  store::StoreOptions store_opt;
  store_opt.fsync_policy = store::FsyncPolicy::kEveryRecord;
  store::MaintenanceConfig maint_cfg;
  server::TcpServerConfig tcp_cfg;
  tcp_cfg.drain_deadline_ms = 2000;  // daemon default: bounded graceful drain
  bool metrics_dump = false;
  std::string trace_path;
  int http_port = -1;  // -1 = sidecar off
  unsigned slow_trace_ms = 0;
  std::string events_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return (i + 1 < argc) ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--port" && (v = next()) != nullptr) {
      port = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--engines" && (v = next()) != nullptr) {
      cfg.workers = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--queue-depth" && (v = next()) != nullptr) {
      cfg.queue_depth = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--preset" && (v = next()) != nullptr) {
      preset = v;
    } else if (arg == "--matchfinder" && (v = next()) != nullptr) {
      if (!server::parse_match_backend(v, cfg.match_backend)) return usage();
    } else if (arg == "--small-threshold-kb" && (v = next()) != nullptr) {
      cfg.small_threshold = static_cast<std::size_t>(std::atoi(v)) * 1024;
    } else if (arg == "--large-engines" && (v = next()) != nullptr) {
      cfg.large_engines = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--threshold-kb" && (v = next()) != nullptr) {
      cfg.large_threshold = static_cast<std::size_t>(std::atoi(v)) * 1024;
    } else if (arg == "--block-kb" && (v = next()) != nullptr) {
      cfg.block_bytes = static_cast<std::size_t>(std::atoi(v)) * 1024;
    } else if (arg == "--request-timeout-ms" && (v = next()) != nullptr) {
      cfg.request_timeout_ms = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--hung-worker-ms" && (v = next()) != nullptr) {
      cfg.hung_worker_ms = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--store-dir" && (v = next()) != nullptr) {
      store_dir = v;
    } else if (arg == "--store-fsync" && (v = next()) != nullptr) {
      try {
        store_opt.fsync_policy = store::fsync_policy_from_name(v);
      } catch (const std::invalid_argument&) {
        return usage();
      }
    } else if (arg == "--store-segment-kb" && (v = next()) != nullptr) {
      store_opt.segment_bytes = static_cast<std::size_t>(std::atoi(v)) * 1024;
    } else if (arg == "--compact-trigger-garbage-pct" && (v = next()) != nullptr) {
      maint_cfg.compact_trigger_garbage_pct = std::atof(v);
    } else if (arg == "--retain-max-bytes" && (v = next()) != nullptr) {
      maint_cfg.retain_max_bytes = std::strtoull(v, nullptr, 10);
    } else if (arg == "--retain-max-records" && (v = next()) != nullptr) {
      maint_cfg.retain_max_records = std::strtoull(v, nullptr, 10);
    } else if (arg == "--retain-max-age-s" && (v = next()) != nullptr) {
      maint_cfg.retain_max_age_s = std::strtoull(v, nullptr, 10);
    } else if (arg == "--scrub-interval-s" && (v = next()) != nullptr) {
      maint_cfg.scrub_interval_s = std::strtoull(v, nullptr, 10);
    } else if (arg == "--maintenance-tick-ms" && (v = next()) != nullptr) {
      maint_cfg.tick_interval_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-conns" && (v = next()) != nullptr) {
      tcp_cfg.max_conns = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--idle-timeout-ms" && (v = next()) != nullptr) {
      tcp_cfg.idle_timeout_ms = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--read-timeout-ms" && (v = next()) != nullptr) {
      tcp_cfg.read_progress_timeout_ms = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--write-stall-ms" && (v = next()) != nullptr) {
      tcp_cfg.write_stall_timeout_ms = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--max-write-buf-kb" && (v = next()) != nullptr) {
      tcp_cfg.max_write_buf_bytes = static_cast<std::size_t>(std::strtoull(v, nullptr, 10)) * 1024;
    } else if (arg == "--inflight-budget-mb" && (v = next()) != nullptr) {
      tcp_cfg.max_inflight_bytes =
          static_cast<std::size_t>(std::strtoull(v, nullptr, 10)) * 1024 * 1024;
    } else if (arg == "--brownout-queue-wait-ms" && (v = next()) != nullptr) {
      tcp_cfg.brownout_queue_wait_us = std::strtoull(v, nullptr, 10) * 1000;
    } else if (arg == "--drain-deadline-ms" && (v = next()) != nullptr) {
      tcp_cfg.drain_deadline_ms = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--arm-fault" && (v = next()) != nullptr) {
      if (!arm_fault_from_spec(v)) return usage();
    } else if (arg == "--metrics-dump") {
      metrics_dump = true;
    } else if (arg == "--trace-jsonl" && (v = next()) != nullptr) {
      trace_path = v;
    } else if (arg == "--http-port" && (v = next()) != nullptr) {
      http_port = std::atoi(v);
    } else if (arg == "--trace-sample" && (v = next()) != nullptr) {
      cfg.trace_sample = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--slow-trace-ms" && (v = next()) != nullptr) {
      slow_trace_ms = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--events-jsonl" && (v = next()) != nullptr) {
      events_path = v;
    } else {
      return usage();
    }
  }
  if (port > 65535 || http_port > 65535) return usage();

  try {
    cfg.hw = est::preset_by_name(preset).config;
    // One registry/trace ring for the whole process: the service, the store,
    // and the hw census all report here, so a single STATS response (or the
    // shutdown dump) covers every layer. Declared before the store and the
    // service so it outlives both.
    obs::Registry registry;
    obs::TraceRing trace(8192);
    // Slow-request keep-ring: finish() copies the full span tree of any
    // request over the threshold here, out of the main ring's churn.
    obs::TraceRing slow_trace(1024);
    obs::EventLog events;
    if (!events_path.empty() && !events.open_jsonl(events_path))
      std::fprintf(stderr, "lzssd: cannot append events to %s\n", events_path.c_str());
    cfg.registry = &registry;
    cfg.trace = &trace;
    cfg.slow_trace = &slow_trace;
    cfg.slow_trace_us = static_cast<std::uint64_t>(slow_trace_ms) * 1000;
    cfg.events = &events;
    tcp_cfg.events = &events;
    maint_cfg.events = &events;
    // Declared before the service so it outlives the worker drain in
    // Service::~Service (queued LOG_APPENDs may still touch the store).
    std::unique_ptr<store::LogStore> log_store;
    server::Service service(cfg);
    // Declared after the service: the maintenance thread stops (and its last
    // in-flight compaction/scrub finishes) before the store goes away.
    std::unique_ptr<store::Maintenance> maintenance;

    if (!store_dir.empty()) {
      store::RecoveryReport recovery;
      log_store = std::make_unique<store::LogStore>(store_dir, store_opt, &recovery);
      log_store->bind_metrics(registry, &trace);
      service.attach_store(log_store.get());
      std::printf("store %s (fsync %s): %s", store_dir.c_str(),
                  store::fsync_policy_name(store_opt.fsync_policy),
                  recovery.render().c_str());
      if (maint_cfg.enabled()) {
        maintenance = std::make_unique<store::Maintenance>(*log_store, maint_cfg);
        maintenance->start();
        std::printf("maintenance: compact>=%.1f%% garbage, retain<=%" PRIu64
                    "B/%" PRIu64 "rec/%" PRIu64 "s, scrub every %" PRIu64
                    "s, tick %" PRIu64 "ms\n",
                    maint_cfg.compact_trigger_garbage_pct, maint_cfg.retain_max_bytes,
                    maint_cfg.retain_max_records, maint_cfg.retain_max_age_s,
                    maint_cfg.scrub_interval_s, maint_cfg.tick_interval_ms);
      }
    }

    // The scrape plane: live telemetry without touching the data port.
    // Declared after everything its handlers read (registry, rings, events)
    // so destruction stops the sidecar thread first.
    std::unique_ptr<obs::HttpSidecar> http;
    if (http_port >= 0) {
      http = std::make_unique<obs::HttpSidecar>(static_cast<std::uint16_t>(http_port));
      http->handle("/metrics", "text/plain; version=0.0.4",
                   [&registry] { return registry.snapshot().to_prometheus(); });
      http->handle("/trace", "application/x-ndjson", [&trace] { return trace.to_jsonl(); });
      http->handle("/trace/slow", "application/x-ndjson",
                   [&slow_trace] { return slow_trace.to_jsonl(); });
      http->handle("/events", "application/x-ndjson",
                   [&events] { return events.recent_jsonl(); });
      http->handle("/healthz", "text/plain", [] { return std::string("ok\n"); });
      http->start();
    }

    server::TcpServer tcp(service, static_cast<std::uint16_t>(port), tcp_cfg);
    g_server = &tcp;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGUSR1, handle_dump_signal);

    // Shared by the SIGUSR1 dump thread and the shutdown path: Prometheus
    // text to stdout (--metrics-dump), trace ring to --trace-jsonl's path.
    const auto dump_telemetry = [&] {
      if (metrics_dump) {
        const std::string text = registry.snapshot().to_prometheus();
        std::fwrite(text.data(), 1, text.size(), stdout);
        std::fflush(stdout);
      }
      if (!trace_path.empty()) {
        const std::string jsonl = trace.to_jsonl();
        std::FILE* f = std::fopen(trace_path.c_str(), "wb");
        if (f == nullptr) {
          std::fprintf(stderr, "lzssd: cannot write %s\n", trace_path.c_str());
        } else {
          std::fwrite(jsonl.data(), 1, jsonl.size(), f);
          std::fclose(f);
          std::printf("trace: %" PRIu64 " spans recorded, last %zu written to %s\n",
                      trace.recorded(), trace.events().size(), trace_path.c_str());
          std::fflush(stdout);
        }
      }
    };
    // Signal handlers must stay async-signal-safe, so SIGUSR1 only flips an
    // atomic; this thread does the actual (allocating, locking) dump work.
    std::atomic<bool> dump_stop{false};
    std::thread dump_thread([&] {
      while (!dump_stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        if (g_dump_requested.exchange(false)) dump_telemetry();
      }
    });

    std::printf("lzssd listening on port %u (%u engines, queue depth %zu, preset %s)\n",
                static_cast<unsigned>(tcp.port()), cfg.workers, cfg.queue_depth,
                preset.c_str());
    std::printf("overload: max-conns %zu, idle %u ms, read %u ms, write-stall %u ms, "
                "write-buf %zu B, inflight %zu B, brownout p99 %" PRIu64
                " us, drain %u ms (0 = off)\n",
                tcp_cfg.max_conns, tcp_cfg.idle_timeout_ms, tcp_cfg.read_progress_timeout_ms,
                tcp_cfg.write_stall_timeout_ms, tcp_cfg.max_write_buf_bytes,
                tcp_cfg.max_inflight_bytes, tcp_cfg.brownout_queue_wait_us,
                tcp_cfg.drain_deadline_ms);
    if (http)
      std::printf("telemetry on http://127.0.0.1:%u "
                  "(/metrics /trace /trace/slow /events /healthz)\n",
                  static_cast<unsigned>(http->port()));
    std::printf("tracing: sample 1/%u, slow-trace %u ms (0 = off)\n", cfg.trace_sample,
                slow_trace_ms);
    std::fflush(stdout);

    tcp.run();
    dump_stop.store(true);
    dump_thread.join();

    const auto stats = service.snapshot();
    std::printf("lzssd shutting down\n%s", stats.render().c_str());
    if (maintenance) {
      maintenance->stop();
      const auto ms = maintenance->stats();
      std::printf("maintenance: %" PRIu64 " ticks, %" PRIu64 " compactions (%" PRIu64
                  " B reclaimed, %" PRIu64 " recompressed), %" PRIu64
                  " segments retained out, %" PRIu64 " scrubbed (%" PRIu64
                  " errors), %" PRIu64 " op failures\n",
                  ms.ticks, ms.compactions, ms.bytes_reclaimed, ms.records_recompressed,
                  ms.retention_segments, ms.scrubbed_segments, ms.scrub_errors, ms.errors);
    }
    if (log_store) {
      const auto ss = log_store->stats();
      std::printf("store: %" PRIu64 " appends, %" PRIu64 " fsyncs, %" PRIu64 " -> %" PRIu64
                  " bytes, %" PRIu64 " segments\n",
                  ss.appends, ss.fsyncs, ss.bytes_in, ss.bytes_stored, ss.segments);
    }
    if (events.emitted() != 0 || events.dropped() != 0)
      std::printf("events: %" PRIu64 " emitted, %" PRIu64 " rate-limited\n", events.emitted(),
                  events.dropped());
    dump_telemetry();
    g_server = nullptr;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lzssd: %s\n", e.what());
    return 1;
  }
}
