// Service-layer behavior over the in-process loopback transport (the full
// wire path minus sockets), plus one real-socket smoke test: round trips for
// both containers, backpressure (BUSY) on a saturated queue, and counter
// consistency.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "common/checksum.hpp"
#include "container/codec.hpp"
#include "container/format.hpp"
#include "deflate/inflate.hpp"
#include "fault/fault.hpp"
#include "lzss/raw_container.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/retry.hpp"
#include "server/service.hpp"
#include "server/tcp.hpp"
#include "workloads/corpus.hpp"

namespace lzss::server {
namespace {

ServiceConfig small_config() {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_depth = 16;
  return cfg;
}

RequestFrame compress_request(std::uint64_t id, std::vector<std::uint8_t> data,
                              std::uint16_t flags = 0) {
  RequestFrame req;
  req.id = id;
  req.opcode = Opcode::kCompress;
  req.flags = flags;
  req.payload = std::move(data);
  return req;
}

TEST(ServerService, ZlibRoundTripOverLoopback) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 32 * 1024);

  const auto resp = client.call(compress_request(42, data));
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.id, 42u);
  EXPECT_EQ(resp.adler, checksum::adler32(data));
  EXPECT_LT(resp.payload.size(), data.size());
  EXPECT_EQ(deflate::zlib_decompress(resp.payload), data);
}

TEST(ServerService, RawContainerRoundTripOverLoopback) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("x2e", 32 * 1024);

  const auto resp = client.call(compress_request(7, data, kFlagRawContainer));
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.adler, checksum::adler32(data));
  EXPECT_EQ(core::raw_container_unpack(resp.payload), data);
}

TEST(ServerService, DecompressOpcodeInvertsCompress) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("mixed", 16 * 1024);

  for (const std::uint16_t flags : {std::uint16_t{0}, kFlagRawContainer}) {
    const auto compressed = client.call(compress_request(1, data, flags));
    ASSERT_EQ(compressed.status, Status::kOk);

    RequestFrame req;
    req.id = 2;
    req.opcode = Opcode::kDecompress;
    req.flags = flags;
    req.payload = compressed.payload;
    const auto restored = client.call(req);
    ASSERT_EQ(restored.status, Status::kOk);
    EXPECT_EQ(restored.payload, data);
    // DECOMPRESS reports the Adler of the reconstructed output.
    EXPECT_EQ(restored.adler, checksum::adler32(data));
  }
}

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

TEST(ServerService, LargePayloadTakesTheMultiEnginePath) {
  // Large COMPRESS stripes run on the worker pool's claim-pool fan-out,
  // never on threads of their own.
  ServiceConfig cfg = small_config();
  cfg.large_threshold = 16 * 1024;  // force striping at a test-friendly size
  cfg.large_engines = 4;
  obs::Registry registry;
  cfg.registry = &registry;
  Service service(cfg);
  LoopbackClient client(service);

  const auto data = wl::make_corpus("wiki", 128 * 1024);
  {
    // Holding the parent out of the claim loop for a moment leaves the
    // stripes to the idle worker's helper job.
    fault::Spec delay;
    delay.action = fault::Action::kDelay;
    delay.delay_ms = 50;
    delay.max_triggers = 1;
    fault::ScopedFault guard("container.reassemble.delay", delay);
    const auto resp = client.call(compress_request(9, data));
    ASSERT_EQ(resp.status, Status::kOk);
    // The striped stream is multi-block Deflate but still one valid zlib body.
    EXPECT_EQ(deflate::zlib_decompress(resp.payload), data);
  }
  EXPECT_GT(registry.counter("container_helper_blocks_total").value(), 0u);

  // Four clients keep both workers busy with large calls; the process's
  // thread count never grows past what it was once the clients had started.
  constexpr int kClients = 4;
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      started.fetch_add(1);
      for (int k = 0; k < 3; ++k) {
        const auto resp = client.call(compress_request(static_cast<std::uint64_t>(t), data));
        if (resp.status != Status::kOk || deflate::zlib_decompress(resp.payload) != data)
          failures.fetch_add(1);
      }
      finished.fetch_add(1);
    });
  }
  while (started.load() < kClients) std::this_thread::yield();
  const std::size_t baseline = thread_count();
  std::size_t peak = baseline;
  while (finished.load() < kClients) peak = std::max(peak, thread_count());
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(peak, baseline);
}

TEST(ServerService, PingEchoesIdAndFlags) {
  Service service(small_config());
  LoopbackClient client(service);
  RequestFrame req;
  req.id = 0xABCDEF;
  req.opcode = Opcode::kPing;
  req.flags = 0x0042;
  const auto resp = client.call(req);
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.id, 0xABCDEFu);
  EXPECT_EQ(resp.flags, 0x0042u);
  EXPECT_TRUE(resp.payload.empty());
}

TEST(ServerService, UnknownPresetAnswersUnsupported) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 4 * 1024);
  const auto resp =
      client.call(compress_request(1, data, flags_with_preset(0, /*preset_id=*/200)));
  EXPECT_EQ(resp.status, Status::kUnsupported);
}

TEST(ServerService, NamedPresetCompresses) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 16 * 1024);
  // Preset 2 = "balanced" (standard_presets() order).
  const auto resp = client.call(compress_request(1, data, flags_with_preset(0, 2)));
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(deflate::zlib_decompress(resp.payload), data);
}

TEST(ServerService, CorruptPayloadAnswersCorrupt) {
  Service service(small_config());
  LoopbackClient client(service);
  RequestFrame req;
  req.id = 3;
  req.opcode = Opcode::kDecompress;
  req.payload = {0x00, 0x11, 0x22, 0x33, 0x44};
  const auto resp = client.call(req);
  EXPECT_EQ(resp.status, Status::kCorrupt);
  EXPECT_TRUE(resp.payload.empty());
}

TEST(ServerService, EmptyCompressRoundTrips) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto resp = client.call(compress_request(1, {}));
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.adler, 1u);  // Adler-32 of empty input
  EXPECT_TRUE(deflate::zlib_decompress(resp.payload).empty());
}

TEST(ServerService, SaturatedQueueAnswersBusy) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_depth = 2;
  Service service(cfg);

  // Direct submit (bypassing loopback's one-outstanding-call-per-thread
  // limit): fire many sizable jobs at once; one worker + depth 2 must shed.
  const auto data = wl::make_corpus("wiki", 64 * 1024);
  constexpr int kJobs = 12;
  std::mutex mutex;
  std::condition_variable cv;
  int completed = 0, busy = 0, ok = 0;
  for (int i = 0; i < kJobs; ++i) {
    service.submit(compress_request(static_cast<std::uint64_t>(i), data),
                   [&](ResponseFrame&& resp) {
                     const std::lock_guard<std::mutex> lock(mutex);
                     ++completed;
                     if (resp.status == Status::kBusy) ++busy;
                     if (resp.status == Status::kOk) ++ok;
                     cv.notify_one();
                   });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return completed == kJobs; });
  }
  EXPECT_GT(busy, 0) << "bounded queue never shed load";
  EXPECT_GT(ok, 0) << "no request made it through";
  EXPECT_EQ(busy + ok, kJobs);

  const auto stats = service.snapshot();
  const auto& c = stats.of(Opcode::kCompress);
  EXPECT_EQ(c.requests, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(c.busy, static_cast<std::uint64_t>(busy));
  EXPECT_EQ(c.ok, static_cast<std::uint64_t>(ok));
  // A BUSY answer is a reject, not an error — and it is counted exactly once.
  EXPECT_EQ(c.errors, 0u);
  EXPECT_EQ(c.requests, c.ok + c.busy + c.errors);
}

TEST(ServerService, StatsCountersMatchIssuedRequests) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 8 * 1024);

  constexpr int kRequests = 5;
  std::size_t bytes_out = 0;
  for (int i = 0; i < kRequests; ++i) {
    const auto resp = client.call(compress_request(static_cast<std::uint64_t>(i), data));
    ASSERT_EQ(resp.status, Status::kOk);
    bytes_out += resp.payload.size();
  }
  (void)client.call([] {
    RequestFrame r;
    r.opcode = Opcode::kPing;
    return r;
  }());

  const auto stats = service.snapshot();
  const auto& c = stats.of(Opcode::kCompress);
  EXPECT_EQ(c.requests, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(c.ok, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(c.busy, 0u);
  EXPECT_EQ(c.errors, 0u);
  EXPECT_EQ(c.bytes_in, static_cast<std::uint64_t>(kRequests) * data.size());
  EXPECT_EQ(c.bytes_out, bytes_out);
  EXPECT_EQ(stats.of(Opcode::kPing).requests, 1u);

  // The STATS opcode answers the same numbers as machine-readable JSON:
  // {"service":{...},"metrics":[...]}. The snapshot is taken before the
  // STATS request itself is counted, so compress still reads exactly 5.
  RequestFrame sreq;
  sreq.opcode = Opcode::kStats;
  const auto sresp = client.call(sreq);
  ASSERT_EQ(sresp.status, Status::kOk);
  const std::string text(sresp.payload.begin(), sresp.payload.end());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.back(), '}');
  EXPECT_NE(text.find("\"service\":{\"opcodes\":{"), std::string::npos);
  EXPECT_NE(text.find("\"compress\":{\"requests\":5,\"ok\":5,\"busy\":0,\"errors\":0"),
            std::string::npos);
  EXPECT_NE(text.find("\"ping\":{\"requests\":1,\"ok\":1"), std::string::npos);
  EXPECT_NE(text.find("\"queue_high_water\":"), std::string::npos);
  // The registry rides along: per-opcode counters from the metrics layer
  // must agree with the service-level snapshot in the same payload.
  EXPECT_NE(text.find("\"metrics\":["), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"server_requests_total\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"server_latency_us\""), std::string::npos);
}

TEST(ServerService, DeadlineExceededCountsAsErrorExactlyOnce) {
  // Queue entries that blow their deadline answer DEADLINE_EXCEEDED via the
  // same finish() path as everything else: each request lands in exactly one
  // of ok/busy/errors, and the buckets sum back to requests.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_depth = 16;
  cfg.request_timeout_ms = 1;
  Service service(cfg);

  const auto data = wl::make_corpus("wiki", 64 * 1024);
  constexpr int kJobs = 10;
  std::mutex mutex;
  std::condition_variable cv;
  int completed = 0, ok = 0, busy = 0, errors = 0;
  for (int i = 0; i < kJobs; ++i) {
    service.submit(compress_request(static_cast<std::uint64_t>(i), data),
                   [&](ResponseFrame&& resp) {
                     const std::lock_guard<std::mutex> lock(mutex);
                     ++completed;
                     if (resp.status == Status::kOk) ++ok;
                     else if (resp.status == Status::kBusy) ++busy;
                     else ++errors;
                     cv.notify_one();
                   });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return completed == kJobs; });
  }
  EXPECT_GT(errors, 0) << "1 ms deadline never expired a queued 64 KiB job";

  const auto stats = service.snapshot();
  const auto& c = stats.of(Opcode::kCompress);
  EXPECT_EQ(c.requests, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(c.ok, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(c.busy, static_cast<std::uint64_t>(busy));
  EXPECT_EQ(c.errors, static_cast<std::uint64_t>(errors));
  EXPECT_EQ(c.requests, c.ok + c.busy + c.errors);
  EXPECT_GE(stats.deadline_exceeded, static_cast<std::uint64_t>(errors));
}

TEST(ServerRetry, SleepAccountingSharesTheRngDraw) {
  // RetryStats::slept_ms must equal the milliseconds the backoff actually
  // slept. A replica Backoff with the same seed predicts the exact stream;
  // a second independent draw inside sleep() would desync them.
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_delay_ms = 2;
  policy.max_delay_ms = 8;
  Backoff replica(policy);
  std::uint64_t expected = 0;
  for (unsigned a = 0; a + 1 < policy.max_attempts; ++a) expected += replica.delay_ms(a);

  RetryStats stats;
  unsigned calls = 0;
  RequestFrame req;
  req.opcode = Opcode::kPing;
  const auto resp = call_with_retry(
      [&](const RequestFrame&) {
        ++calls;
        ResponseFrame r;
        r.status = Status::kBusy;
        return r;
      },
      req, policy, &stats);
  EXPECT_EQ(resp.status, Status::kBusy);  // exhausted, last answer returned
  EXPECT_EQ(calls, policy.max_attempts);
  EXPECT_EQ(stats.attempts, policy.max_attempts);
  EXPECT_EQ(stats.retries, policy.max_attempts - 1);
  EXPECT_EQ(stats.slept_ms, expected);
}

TEST(ServerService, LatencyPercentilesPopulateAfterTraffic) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 16 * 1024);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(client.call(compress_request(static_cast<std::uint64_t>(i), data)).status,
              Status::kOk);
  }
  const auto stats = service.snapshot();
  EXPECT_GT(stats.of(Opcode::kCompress).p99_us, 0u);
  EXPECT_LE(stats.of(Opcode::kCompress).p50_us, stats.of(Opcode::kCompress).p99_us);
}

TEST(ServerService, ConcurrentLoopbackClientsAllRoundTrip) {
  Service service(small_config());
  const auto data = wl::make_corpus("mixed", 8 * 1024);
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      LoopbackClient client(service);
      for (int i = 0; i < 4; ++i) {
        const auto resp = client.call(
            compress_request(static_cast<std::uint64_t>(t * 100 + i), data,
                             (i % 2) != 0 ? kFlagRawContainer : std::uint16_t{0}));
        if (resp.status == Status::kBusy) continue;  // legal under contention
        if (resp.status != Status::kOk || resp.adler != checksum::adler32(data)) {
          failures.fetch_add(1);
          continue;
        }
        const auto out = (i % 2) != 0 ? core::raw_container_unpack(resp.payload)
                                      : deflate::zlib_decompress(resp.payload);
        if (out != data) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

RequestFrame blocked_request(std::uint64_t id, std::vector<std::uint8_t> data,
                             std::uint16_t flags = 0) {
  RequestFrame req;
  req.id = id;
  req.opcode = Opcode::kCompressBlocked;
  req.flags = flags;
  req.payload = std::move(data);
  return req;
}

RequestFrame decompress_request(std::uint64_t id, std::vector<std::uint8_t> payload) {
  RequestFrame req;
  req.id = id;
  req.opcode = Opcode::kDecompress;
  req.payload = std::move(payload);
  return req;
}

TEST(ServerService, FarMatchesOfTheRatioPresetRoundTripThroughDecompress) {
  // Preset 3 ("ratio") has a 64 KiB dictionary, farther than the 32768 bytes
  // a Deflate distance code reaches. For Deflate output the service searches
  // a 32 KiB window instead, so every COMPRESS flavour still compresses, and
  // DECOMPRESS inverts it.
  Service service(small_config());
  LoopbackClient client(service);
  auto data = wl::make_corpus("wiki", 96 * 1024);
  const auto motif = wl::make_corpus("random", 300, 7);
  std::copy(motif.begin(), motif.end(), data.begin() + 30'000);
  std::copy(motif.begin(), motif.end(), data.begin() + 80'000);  // 50,000 bytes back

  const std::uint16_t ratio = flags_with_preset(0, 3);
  const RequestFrame requests[] = {
      compress_request(1, data, flags_with_matchfinder(ratio, 1)),  // hw model
      compress_request(2, data, flags_with_matchfinder(ratio, 2)),  // hashchain
      blocked_request(3, data, ratio),
  };
  for (const RequestFrame& req : requests) {
    SCOPED_TRACE("request " + std::to_string(req.id));
    const auto packed = client.call(req);
    ASSERT_EQ(packed.status, Status::kOk);
    EXPECT_LT(static_cast<double>(packed.payload.size()), 0.9 * static_cast<double>(data.size()));
    const auto restored = client.call(decompress_request(req.id + 10, packed.payload));
    EXPECT_EQ(restored.status, Status::kOk);
    EXPECT_EQ(restored.payload, data);
  }
}

TEST(ServerContainer, BlockedCompressRoundTripsThroughDecompress) {
  ServiceConfig cfg = small_config();
  cfg.block_bytes = 32 * 1024;
  Service service(cfg);
  LoopbackClient client(service);
  const auto data = wl::make_corpus("mixed", 200 * 1024);

  const auto packed = client.call(blocked_request(1, data));
  ASSERT_EQ(packed.status, Status::kOk);
  EXPECT_EQ(packed.adler, checksum::adler32(data));
  const auto view = container::parse(packed.payload, data.size());
  EXPECT_EQ(view.raw_total, data.size());
  EXPECT_EQ(view.blocks.size(), container::block_count_for(data.size(), 32 * 1024));

  // Plain DECOMPRESS sniffs the LZBC magic and inverts it in parallel.
  const auto restored = client.call(decompress_request(2, packed.payload));
  ASSERT_EQ(restored.status, Status::kOk);
  EXPECT_EQ(restored.payload, data);
  EXPECT_EQ(restored.adler, checksum::adler32(data));
}

TEST(ServerContainer, BlockedCompressWithPresetRoundTrips) {
  ServiceConfig cfg = small_config();
  cfg.block_bytes = 32 * 1024;
  Service service(cfg);
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 96 * 1024);

  // Preset 2 = "balanced": workers can't reuse their default-config engine,
  // so every block encodes on an ad-hoc model for the preset's geometry.
  const auto packed = client.call(blocked_request(1, data, flags_with_preset(0, 2)));
  ASSERT_EQ(packed.status, Status::kOk);
  EXPECT_EQ(container::block_decompress(packed.payload, data.size()), data);
}

TEST(ServerContainer, LargeRequestOccupiesMultipleWorkers) {
  // The acceptance proof for the fan-out path: one 8 MiB COMPRESS_BLOCKED
  // request, four workers. A short armed delay keeps the parent out of the
  // claim pool at the start, so helper workers demonstrably carry blocks
  // (container_helper_blocks_total > 0) — the request cannot have run on a
  // single worker.
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_depth = 32;
  cfg.block_bytes = 256 * 1024;
  obs::Registry registry;
  cfg.registry = &registry;
  Service service(cfg);
  LoopbackClient client(service);

  fault::Spec delay;
  delay.action = fault::Action::kDelay;
  delay.delay_ms = 50;
  delay.max_triggers = 1;
  const auto data = wl::make_corpus("x2e", 8 * 1024 * 1024);
  std::optional<ResponseFrame> packed;
  {
    fault::ScopedFault guard("container.reassemble.delay", delay);
    packed = client.call(blocked_request(1, data));
  }
  ASSERT_EQ(packed->status, Status::kOk);
  EXPECT_GT(registry.counter("container_helper_blocks_total").value(), 0u);
  EXPECT_EQ(registry.counter("container_blocks_total", {{"op", "compress"}}).value(),
            container::block_count_for(data.size(), cfg.block_bytes));

  const auto restored = client.call(decompress_request(2, packed->payload));
  ASSERT_EQ(restored.status, Status::kOk);
  EXPECT_EQ(restored.payload, data);
  EXPECT_EQ(registry.counter("container_blocks_total", {{"op", "decompress"}}).value(),
            container::block_count_for(data.size(), cfg.block_bytes));
}

TEST(ServerContainer, CorruptedBlockAnswersCorruptNeverPartial) {
  ServiceConfig cfg = small_config();
  cfg.block_bytes = 32 * 1024;
  Service service(cfg);
  LoopbackClient client(service);
  const auto data = wl::make_corpus("wiki", 128 * 1024);

  const auto packed = client.call(blocked_request(1, data));
  ASSERT_EQ(packed.status, Status::kOk);

  // Flip one bit inside the last block's payload: every earlier block still
  // decodes, but the response must be a typed CORRUPT with no payload.
  auto mangled = packed.payload;
  mangled.back() ^= 0x01;
  const auto resp = client.call(decompress_request(2, std::move(mangled)));
  EXPECT_EQ(resp.status, Status::kCorrupt);
  EXPECT_TRUE(resp.payload.empty());
}

TEST(ServerContainer, RawTotalBeyondPayloadCapAnswersTooLarge) {
  // A tiny container whose header promises more raw bytes than the service
  // cap: the superframe bomb guard answers TOO_LARGE before any block work.
  ServiceConfig cfg = small_config();
  cfg.max_payload = 1024 * 1024;
  Service service(cfg);
  LoopbackClient client(service);

  std::vector<std::uint8_t> bomb;
  const std::uint32_t block_size = 1024 * 1024;
  const std::uint64_t raw_total = static_cast<std::uint64_t>(cfg.max_payload) + 1;
  container::append_superframe_header(
      bomb, block_size, static_cast<std::uint32_t>(container::block_count_for(raw_total, block_size)),
      raw_total);
  const auto resp = client.call(decompress_request(1, std::move(bomb)));
  EXPECT_EQ(resp.status, Status::kTooLarge);
  EXPECT_TRUE(resp.payload.empty());
}

TEST(ServerContainer, RawFlagOnBlockedCompressAnswersBadRequest) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto resp =
      client.call(blocked_request(1, wl::make_corpus("wiki", 4 * 1024), kFlagRawContainer));
  EXPECT_EQ(resp.status, Status::kBadRequest);
  EXPECT_TRUE(resp.payload.empty());
}

TEST(ServerContainer, EmptyBlockedCompressRoundTrips) {
  Service service(small_config());
  LoopbackClient client(service);
  const auto packed = client.call(blocked_request(1, {}));
  ASSERT_EQ(packed.status, Status::kOk);
  EXPECT_EQ(packed.payload.size(), container::kSuperframeHeaderSize);
  const auto restored = client.call(decompress_request(2, packed.payload));
  ASSERT_EQ(restored.status, Status::kOk);
  EXPECT_TRUE(restored.payload.empty());
  EXPECT_EQ(restored.adler, 1u);  // Adler-32 of empty output
}

TEST(ServerService, PlainDecompressBombAnswersTooLarge) {
  // A valid zlib stream that inflates past the small service's cap must be
  // refused with the typed TOO_LARGE, not inflated into memory.
  Service big(small_config());
  LoopbackClient big_client(big);
  const auto data = wl::make_corpus("zeros", 2 * 1024 * 1024);
  const auto packed = big_client.call(compress_request(1, data));
  ASSERT_EQ(packed.status, Status::kOk);
  ASSERT_LT(packed.payload.size(), 1024u * 1024);

  ServiceConfig capped = small_config();
  capped.max_payload = 1024 * 1024;
  Service small(capped);
  LoopbackClient small_client(small);
  const auto resp = small_client.call(decompress_request(2, packed.payload));
  EXPECT_EQ(resp.status, Status::kTooLarge);
  EXPECT_TRUE(resp.payload.empty());
}

TEST(ServerSession, PoisonedSessionEmitsExactlyOneErrorAndIgnoresFurtherBytes) {
  int handled = 0;
  Session session(1, [&](RequestFrame&&) { ++handled; });

  // Garbage that cannot be a frame: bad magic poisons the parser.
  const std::vector<std::uint8_t> junk{'X', 'X', 'X', 'X', 0, 0, 0, 0};
  session.on_bytes(junk);
  EXPECT_TRUE(session.closed());
  EXPECT_EQ(handled, 0);

  // Exactly one typed error response sits in the outbox.
  ResponseParser parser;
  parser.feed(session.take_outgoing());
  const auto err = parser.next();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->status, Status::kBadRequest);
  EXPECT_FALSE(parser.next().has_value());

  // Further frames — even perfectly valid ones — are dropped, not parsed,
  // and produce no second response.
  RequestFrame valid;
  valid.opcode = Opcode::kPing;
  session.on_bytes(encode_request(valid));
  session.on_bytes(junk);
  EXPECT_EQ(handled, 0);
  EXPECT_FALSE(session.has_outgoing());
  EXPECT_EQ(session.requests_seen(), 0u);
}

TEST(ServerTcp, PoisonedConnectionGetsOneErrorThenClose) {
  Service service(small_config());
  TcpServer server(service, /*port=*/0);
  std::thread server_thread([&] { server.run(); });

  {
    // A protocol-violating client: valid request first (proves the session
    // works), then garbage. The front end must flush exactly one
    // BAD_REQUEST response and close the connection.
    TcpClient client("127.0.0.1", server.port());
    RequestFrame ping;
    ping.id = 9;
    ping.opcode = Opcode::kPing;
    EXPECT_EQ(client.call(ping).status, Status::kOk);
  }

  // Raw-socket phase: TcpClient only speaks the protocol, so drive the
  // poisoning bytes by hand.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);

  const std::uint8_t junk[8] = {'n', 'o', 'p', 'e', 1, 2, 3, 4};
  ASSERT_EQ(::send(fd, junk, sizeof(junk), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(junk)));

  // Read until EOF: everything the server sends before closing the fd.
  std::vector<std::uint8_t> received;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // 0 = server closed the connection, as required
    received.insert(received.end(), buf, buf + n);
  }
  ::close(fd);

  ResponseParser parser;
  parser.feed(received);
  const auto err = parser.next();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->status, Status::kBadRequest);
  EXPECT_FALSE(parser.next().has_value());  // exactly one frame, then close

  server.stop();
  server_thread.join();
}

TEST(ServerTcp, EndToEndOverRealSockets) {
  Service service(small_config());
  TcpServer server(service, /*port=*/0);
  std::thread server_thread([&] { server.run(); });

  const auto data = wl::make_corpus("wiki", 16 * 1024);
  {
    TcpClient client("127.0.0.1", server.port());

    RequestFrame ping;
    ping.id = 1;
    ping.opcode = Opcode::kPing;
    EXPECT_EQ(client.call(ping).status, Status::kOk);

    const auto resp = client.call(compress_request(2, data));
    ASSERT_EQ(resp.status, Status::kOk);
    EXPECT_EQ(resp.adler, checksum::adler32(data));
    EXPECT_EQ(deflate::zlib_decompress(resp.payload), data);

    // Two sequential requests on one connection (framing keeps sync).
    const auto resp2 = client.call(compress_request(3, data, kFlagRawContainer));
    ASSERT_EQ(resp2.status, Status::kOk);
    EXPECT_EQ(core::raw_container_unpack(resp2.payload), data);
  }
  EXPECT_GE(server.connections_accepted(), 1u);

  server.stop();
  server_thread.join();
}

// --- Request-scoped tracing --------------------------------------------------

TEST(ServerServiceTrace, ClientTraceIdIsEchoedAndTreeRecorded) {
  obs::TraceRing ring(1024);
  ServiceConfig cfg = small_config();
  cfg.trace = &ring;
  cfg.trace_sample = 0;  // only client-forced traces
  Service service(cfg);
  LoopbackClient client(service);

  RequestFrame req = compress_request(5, wl::make_corpus("wiki", 8 * 1024));
  req.flags |= kFlagTraced;
  req.trace_id = 0x5EED5EED5EED5EEDull;
  const auto resp = client.call(req);
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.trace_id, req.trace_id);

  const auto tree = ring.events_for(req.trace_id);
  ASSERT_GE(tree.size(), 2u);  // at least opcode span + request root
  // Exactly one root, and every non-root parents onto a span in the tree.
  std::size_t roots = 0;
  for (const auto& e : tree) {
    if (e.parent_id == 0) {
      ++roots;
      EXPECT_STREQ(e.name, "request.compress");
      EXPECT_STREQ(e.tag, "OK");
    } else {
      bool found = false;
      for (const auto& p : tree) found = found || p.span_id == e.parent_id;
      EXPECT_TRUE(found) << e.name;
    }
  }
  EXPECT_EQ(roots, 1u);
}

TEST(ServerServiceTrace, SamplingAssignsIdsWithoutClientOptIn) {
  obs::TraceRing ring(1024);
  ServiceConfig cfg = small_config();
  cfg.trace = &ring;
  cfg.trace_sample = 1;  // trace everything
  Service service(cfg);
  LoopbackClient client(service);

  const auto resp = client.call(compress_request(1, wl::make_corpus("wiki", 4096)));
  ASSERT_EQ(resp.status, Status::kOk);
  // The wire response carries no trace extension (the client never set
  // kFlagTraced, and old clients must see byte-identical responses) ...
  EXPECT_EQ(resp.trace_id, 0u);
  // ... but the server still recorded a full tree under a self-assigned id.
  std::uint64_t sampled_id = 0;
  for (const auto& e : ring.events()) {
    if (e.parent_id == 0 && std::string_view(e.name) == "request.compress")
      sampled_id = e.trace_id;
  }
  ASSERT_NE(sampled_id, 0u);
  EXPECT_GE(ring.events_for(sampled_id).size(), 2u);
}

TEST(ServerServiceTrace, UnsampledRequestsStayUntraced) {
  obs::TraceRing ring(1024);
  ServiceConfig cfg = small_config();
  cfg.trace = &ring;
  cfg.trace_sample = 0;
  Service service(cfg);
  LoopbackClient client(service);
  const auto resp = client.call(compress_request(1, wl::make_corpus("wiki", 4096)));
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.trace_id, 0u);
  // Spans still record (flat), but no request root exists.
  for (const auto& e : ring.events()) EXPECT_EQ(e.trace_id, 0u);
}

TEST(ServerServiceTrace, BlockFanoutYieldsFourDeepTree) {
  obs::TraceRing ring(4096);
  ServiceConfig cfg = small_config();
  cfg.trace = &ring;
  cfg.trace_sample = 0;
  cfg.block_bytes = 16 * 1024;  // several blocks from a small corpus
  Service service(cfg);
  LoopbackClient client(service);

  RequestFrame req;
  req.id = 9;
  req.opcode = Opcode::kCompressBlocked;
  req.flags = kFlagTraced;
  req.trace_id = 0xB10CB10CB10CB10Cull;
  req.payload = wl::make_corpus("mixed", 64 * 1024);
  const auto resp = client.call(req);
  ASSERT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.trace_id, req.trace_id);

  // Walk the tree: engine.encode -> container_block -> compress_blocked ->
  // request.compress_blocked must chain to depth >= 4.
  const auto tree = ring.events_for(req.trace_id);
  std::size_t max_depth = 0;
  for (const auto& e : tree) {
    std::size_t depth = 1;
    std::uint64_t parent = e.parent_id;
    while (parent != 0) {
      for (const auto& p : tree) {
        if (p.span_id == parent) {
          parent = p.parent_id;
          ++depth;
          goto next_hop;
        }
      }
      break;  // parent not in ring (overwritten) — stop counting
    next_hop:;
    }
    max_depth = std::max(max_depth, depth);
  }
  EXPECT_GE(max_depth, 4u) << tree.size() << " spans in tree";
  bool saw_block = false, saw_engine = false;
  for (const auto& e : tree) {
    saw_block = saw_block || std::string_view(e.name) == "container_block";
    saw_engine = saw_engine || std::string_view(e.name) == "engine.encode";
  }
  EXPECT_TRUE(saw_block);
  EXPECT_TRUE(saw_engine);
}

TEST(ServerServiceTrace, SlowRequestsAreCopiedToKeepRing) {
  obs::TraceRing ring(1024);
  obs::TraceRing slow(64);
  ServiceConfig cfg = small_config();
  cfg.trace = &ring;
  cfg.trace_sample = 0;
  cfg.slow_trace = &slow;
  cfg.slow_trace_us = 1;  // every traced request is "slow"
  Service service(cfg);
  LoopbackClient client(service);

  RequestFrame req = compress_request(3, wl::make_corpus("wiki", 8 * 1024));
  req.flags |= kFlagTraced;
  req.trace_id = 0x510051005100510Full;
  ASSERT_EQ(client.call(req).status, Status::kOk);

  const auto kept = slow.events_for(req.trace_id);
  ASSERT_GE(kept.size(), 2u);
  // The keep-ring copy includes the request root (recorded before the copy).
  bool has_root = false;
  for (const auto& e : kept) has_root = has_root || e.parent_id == 0;
  EXPECT_TRUE(has_root);

  // Fast path untouched: a threshold of 0 disables the flight recorder.
  obs::TraceRing slow2(64);
  ServiceConfig cfg2 = small_config();
  cfg2.trace = &ring;
  cfg2.trace_sample = 0;
  cfg2.slow_trace = &slow2;
  cfg2.slow_trace_us = 0;
  Service service2(cfg2);
  LoopbackClient client2(service2);
  RequestFrame req2 = compress_request(4, wl::make_corpus("wiki", 4096));
  req2.flags |= kFlagTraced;
  req2.trace_id = 0xAAAA5555AAAA5555ull;
  ASSERT_EQ(client2.call(req2).status, Status::kOk);
  EXPECT_TRUE(slow2.events().empty());
}

TEST(ServerServiceTrace, TracedRequestSetsHistogramExemplar) {
  obs::Registry registry;
  obs::TraceRing ring(1024);
  ServiceConfig cfg = small_config();
  cfg.registry = &registry;
  cfg.trace = &ring;
  cfg.trace_sample = 0;
  Service service(cfg);
  LoopbackClient client(service);

  RequestFrame req = compress_request(8, wl::make_corpus("wiki", 4096));
  req.flags |= kFlagTraced;
  req.trace_id = 0xE7E7E7E7E7E7E7E7ull;
  ASSERT_EQ(client.call(req).status, Status::kOk);

  const auto snap = registry.snapshot();
  const obs::Sample* s = snap.find("server_latency_us", "compress");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->exemplar_trace_id, req.trace_id);
  const std::string text = snap.to_prometheus();
  EXPECT_NE(text.find("# {trace_id=\"e7e7e7e7e7e7e7e7\"}"), std::string::npos);
}

}  // namespace
}  // namespace lzss::server
