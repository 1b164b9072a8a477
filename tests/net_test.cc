#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/backoff.h"
#include "net/frame.h"
#include "net/reactor.h"
#include "net/strand_pool.h"
#include "net/tcp_transport.h"
#include "util/metrics.h"

namespace bestpeer::net {
namespace {

/// A one-shot flag another thread can wait on, with a timeout.
class Latch {
 public:
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  bool WaitFor(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this]() { return released_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

/// Spins until `flag` holds or about 5 s pass.
bool SpinUntil(const std::atomic<bool>& flag) {
  for (int spin = 0; spin < 5000 && !flag.load(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return flag.load();
}

Bytes SamplePayload(size_t n) {
  Bytes payload(n);
  for (size_t i = 0; i < n; ++i) payload[i] = static_cast<uint8_t>(i * 7);
  return payload;
}

// ---------------------------------------------------------------- frame

TEST(FrameTest, RoundTrip) {
  FrameHeader h;
  h.type = 0x1234;
  h.src = 7;
  h.dst = 9;
  h.flow = 0xABCDEF0102030405ull;
  h.extra_wire = 5000;
  Bytes payload = SamplePayload(100);
  Bytes wire = EncodeFrame(h, payload);
  ASSERT_EQ(wire.size(), kFrameOverheadBytes + payload.size());

  auto back = DecodeFrameHeader(wire.data(), wire.size()).value();
  EXPECT_EQ(back.type, h.type);
  EXPECT_EQ(back.src, h.src);
  EXPECT_EQ(back.dst, h.dst);
  EXPECT_EQ(back.flow, h.flow);
  EXPECT_EQ(back.extra_wire, h.extra_wire);
  EXPECT_EQ(back.payload_len, payload.size());
}

TEST(FrameTest, HeaderOccupiesExactlySharedOverheadConstant) {
  // The simulator charges kFrameOverheadBytes per message; the TCP header
  // must occupy exactly that many bytes so byte counts stay comparable.
  Bytes wire = EncodeFrame(FrameHeader{}, Bytes{});
  EXPECT_EQ(wire.size(), kFrameOverheadBytes);
}

TEST(FrameTest, RejectsTruncatedHeader) {
  Bytes wire = EncodeFrame(FrameHeader{}, Bytes{});
  for (size_t cut = 0; cut < kFrameOverheadBytes; cut += 7) {
    EXPECT_FALSE(DecodeFrameHeader(wire.data(), cut).ok()) << "cut=" << cut;
  }
}

TEST(FrameTest, RejectsBadMagic) {
  Bytes wire = EncodeFrame(FrameHeader{}, Bytes{});
  wire[0] ^= 0xFF;
  EXPECT_FALSE(DecodeFrameHeader(wire.data(), wire.size()).ok());
}

TEST(FrameTest, RejectsBadVersion) {
  Bytes wire = EncodeFrame(FrameHeader{}, Bytes{});
  wire[4] = 0x7F;
  EXPECT_FALSE(DecodeFrameHeader(wire.data(), wire.size()).ok());
}

TEST(FrameTest, RejectsUnknownFlags) {
  // Every flag bit outside kFrameFlagsMask is reserved for future
  // extensions and must be treated as corruption today.
  for (int bit = 0; bit < 16; ++bit) {
    const uint16_t flag = static_cast<uint16_t>(1u << bit);
    if ((flag & kFrameFlagsMask) != 0) continue;
    Bytes wire = EncodeFrame(FrameHeader{}, Bytes{});
    wire[6] = static_cast<uint8_t>(flag);
    wire[7] = static_cast<uint8_t>(flag >> 8);
    EXPECT_FALSE(DecodeFrameHeader(wire.data(), wire.size()).ok())
        << "bit " << bit;
  }
}

TEST(FrameTest, SampledFlagAndTimestampRoundTrip) {
  FrameHeader h;
  h.type = 0x77;
  h.src = 1;
  h.dst = 2;
  h.flow = 99;
  h.flags = kFrameFlagSampled;
  h.sent_at_us = 123456789;
  Bytes wire = EncodeFrame(h, Bytes{});
  auto back = DecodeFrameHeader(wire.data(), wire.size()).value();
  EXPECT_TRUE(back.sampled());
  EXPECT_EQ(back.sent_at_us, 123456789);
  EXPECT_EQ(back.flow, 99u);
}

TEST(FrameTest, UnsampledFrameCarriesNoTimestampBytes) {
  // Tracing-off frames must stay byte-identical to pre-tracing frames:
  // the encoder ignores sent_at_us when the sampled flag is clear, and
  // the decoder treats a nonzero timestamp without the flag as
  // corruption.
  FrameHeader h;
  h.sent_at_us = 42;  // Set but not sampled: must not hit the wire.
  Bytes wire = EncodeFrame(h, Bytes{});
  for (size_t i = 36; i < 44; ++i) EXPECT_EQ(wire[i], 0u) << "byte " << i;
  EXPECT_EQ(DecodeFrameHeader(wire.data(), wire.size()).value().sent_at_us,
            0);

  wire[36] = 0xAA;  // Timestamp bytes without the flag.
  EXPECT_FALSE(DecodeFrameHeader(wire.data(), wire.size()).ok());
}

TEST(FrameTest, RejectsNonzeroReservedBytes) {
  for (size_t i = 36; i < kFrameOverheadBytes; ++i) {
    Bytes wire = EncodeFrame(FrameHeader{}, Bytes{});
    wire[i] = 0xAA;
    EXPECT_FALSE(DecodeFrameHeader(wire.data(), wire.size()).ok())
        << "byte " << i;
  }
}

TEST(FrameTest, RejectsOversizedPayloadLength) {
  Bytes wire = EncodeFrame(FrameHeader{}, Bytes{});
  // payload_len lives at offset 28 (little-endian): claim one byte past
  // the cap.
  const uint32_t claimed = static_cast<uint32_t>(kMaxFramePayload + 1);
  for (int i = 0; i < 4; ++i) {
    wire[28 + i] = static_cast<uint8_t>(claimed >> (8 * i));
  }
  EXPECT_FALSE(DecodeFrameHeader(wire.data(), wire.size()).ok());
}

TEST(FrameDecoderTest, ByteByByteFeedYieldsEveryFrame) {
  Bytes stream;
  for (uint32_t i = 0; i < 3; ++i) {
    FrameHeader h;
    h.type = i;
    h.src = 1;
    h.dst = 2;
    Bytes wire = EncodeFrame(h, SamplePayload(i * 17));
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  FrameDecoder decoder;
  std::vector<FrameHeader> seen;
  for (uint8_t byte : stream) {
    decoder.Feed(&byte, 1);
    FrameHeader h;
    Bytes payload;
    for (;;) {
      auto next = decoder.Next(&h, &payload);
      ASSERT_TRUE(next.ok());
      if (!next.value()) break;
      EXPECT_EQ(payload.size(), h.payload_len);
      EXPECT_EQ(payload, SamplePayload(h.type * 17));
      seen.push_back(h);
    }
  }
  ASSERT_EQ(seen.size(), 3u);
  for (uint32_t i = 0; i < 3; ++i) EXPECT_EQ(seen[i].type, i);
}

TEST(FrameDecoderTest, PoisonedAfterMalformedHeader) {
  FrameDecoder decoder;
  Bytes garbage(kFrameOverheadBytes, 0x5A);
  decoder.Feed(garbage.data(), garbage.size());
  FrameHeader h;
  Bytes payload;
  EXPECT_FALSE(decoder.Next(&h, &payload).ok());
  // Feeding a perfectly valid frame afterwards cannot resynchronize a
  // corrupted byte stream; the decoder must stay in error.
  Bytes good = EncodeFrame(FrameHeader{}, Bytes{});
  decoder.Feed(good.data(), good.size());
  EXPECT_FALSE(decoder.Next(&h, &payload).ok());
}

TEST(FrameDecoderTest, PartialPayloadIsNotDelivered) {
  FrameHeader h;
  h.payload_len = 0;  // EncodeFrame sets the real value.
  Bytes wire = EncodeFrame(h, SamplePayload(64));
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size() - 1);
  FrameHeader out;
  Bytes payload;
  auto next = decoder.Next(&out, &payload);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next.value());
  decoder.Feed(wire.data() + wire.size() - 1, 1);
  next = decoder.Next(&out, &payload);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(next.value());
  EXPECT_EQ(payload, SamplePayload(64));
}

// ---------------------------------------------------------------- backoff

TEST(BackoffTest, DoublesUpToCapAndResets) {
  Backoff backoff(Millis(10), Millis(100));
  EXPECT_EQ(backoff.Next(), Millis(10));
  EXPECT_EQ(backoff.Next(), Millis(20));
  EXPECT_EQ(backoff.Next(), Millis(40));
  EXPECT_EQ(backoff.Next(), Millis(80));
  EXPECT_EQ(backoff.Next(), Millis(100));
  EXPECT_EQ(backoff.Next(), Millis(100));
  EXPECT_EQ(backoff.attempts(), 6);
  backoff.Reset();
  EXPECT_EQ(backoff.attempts(), 0);
  EXPECT_EQ(backoff.Next(), Millis(10));
}

// ---------------------------------------------------------------- reactor

TEST(ReactorTest, RunExecutesOnReactorThread) {
  Reactor reactor;
  reactor.Start();
  bool on_thread = false;
  reactor.Run([&]() { on_thread = reactor.OnReactorThread(); });
  EXPECT_TRUE(on_thread);
  EXPECT_FALSE(reactor.OnReactorThread());
  reactor.Stop();
}

TEST(ReactorTest, TimersFireInDeadlineOrderWithFifoTies) {
  Reactor reactor;
  reactor.Start();
  std::vector<int> order;
  std::atomic<bool> done{false};
  reactor.Run([&]() {
    int64_t t = reactor.now_us() + 2000;
    reactor.AddTimerAt(t + 1000, [&]() { order.push_back(3); });
    reactor.AddTimerAt(t, [&]() { order.push_back(1); });
    reactor.AddTimerAt(t, [&]() { order.push_back(2); });
    reactor.AddTimerAt(t + 2000, [&]() {
      order.push_back(4);
      done.store(true);
    });
  });
  while (!done.load()) {
  }
  reactor.Stop();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

// ---------------------------------------------------------------- tcp

TEST(TcpTransportTest, SendsBothWaysOverLoopback) {
  metrics::Registry registry;
  TcpOptions options;
  options.metrics = &registry;
  TcpNet net(options);
  TcpTransport* a = net.AddNode().value();
  TcpTransport* b = net.AddNode().value();

  std::atomic<int> got_at_b{0};
  std::atomic<int> got_at_a{0};
  b->SetHandler([&](const Message& msg) {
    EXPECT_EQ(msg.src, a->local());
    EXPECT_EQ(msg.dst, b->local());
    EXPECT_EQ(msg.type, 42u);
    EXPECT_EQ(msg.payload, SamplePayload(33));
    // wire_size = payload + frame header + modelled extra bytes.
    EXPECT_EQ(msg.wire_size, 33 + kFrameOverheadBytes + 1000);
    got_at_b.fetch_add(1);
    b->Send(msg.src, 43, Bytes{9});
  });
  a->SetHandler([&](const Message& msg) {
    EXPECT_EQ(msg.type, 43u);
    got_at_a.fetch_add(1);
  });

  net.Start();
  a->Send(b->local(), 42, SamplePayload(33), /*extra_wire_bytes=*/1000);
  for (int spin = 0; spin < 2000 && got_at_a.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  net.Stop();

  EXPECT_EQ(got_at_b.load(), 1);
  EXPECT_EQ(got_at_a.load(), 1);
  metrics::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.Value("net.tx_msgs"), 2);
  EXPECT_EQ(snap.Value("net.rx_msgs"), 2);
  EXPECT_EQ(snap.Value("net.frame_errors"), 0);
  // Both directions charge payload + header (+ extra on the first send).
  EXPECT_EQ(snap.Value("net.tx_bytes"),
            (33 + kFrameOverheadBytes + 1000) + (1 + kFrameOverheadBytes));
  EXPECT_EQ(snap.Value("net.rx_bytes"), snap.Value("net.tx_bytes"));
}

TEST(TcpTransportTest, ManyMessagesArriveInSendOrder) {
  TcpNet net;
  TcpTransport* a = net.AddNode().value();
  TcpTransport* b = net.AddNode().value();
  std::vector<uint32_t> types;
  std::atomic<int> count{0};
  b->SetHandler([&](const Message& msg) {
    types.push_back(msg.type);
    count.fetch_add(1);
  });
  net.Start();
  net.Run([&]() {
    for (uint32_t i = 0; i < 500; ++i) {
      a->Send(b->local(), i, SamplePayload(i % 97));
    }
  });
  for (int spin = 0; spin < 5000 && count.load() < 500; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  net.Stop();
  ASSERT_EQ(types.size(), 500u);
  for (uint32_t i = 0; i < 500; ++i) EXPECT_EQ(types[i], i);
}

TEST(TcpTransportTest, OfflineDestinationDropsAndCounts) {
  TcpNet net;
  TcpTransport* a = net.AddNode().value();
  TcpTransport* b = net.AddNode().value();
  std::atomic<int> got{0};
  b->SetHandler([&](const Message&) { got.fetch_add(1); });
  net.Start();
  net.SetOnline(b->local(), false);
  EXPECT_FALSE(a->IsOnline(b->local()));
  net.Run([&]() { a->Send(b->local(), 1, Bytes{1}); });
  net.Run([]() {});  // One more round trip: the drop happened inline.
  EXPECT_EQ(a->tx_dropped(), 1u);
  net.SetOnline(b->local(), true);
  net.Run([&]() { a->Send(b->local(), 2, Bytes{2}); });
  for (int spin = 0; spin < 2000 && got.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  net.Stop();
  EXPECT_EQ(got.load(), 1);
  EXPECT_EQ(b->rx_messages(), 1u);
}

TEST(TcpTransportTest, RunCpuSerializesPerNode) {
  TcpNet net;
  TcpTransport* a = net.AddNode().value();
  net.Start();
  std::vector<int> order;
  std::atomic<bool> done{false};
  bool ran_inside_submit = true;
  const auto start = std::chrono::steady_clock::now();
  net.Run([&]() {
    // Submitted back to back: they complete in submission order, after
    // the submitting callback, and neither waits out its modelled cost.
    a->RunCpu(Seconds(10), [&]() { order.push_back(1); });
    a->RunCpu(Micros(1), [&]() {
      order.push_back(2);
      done.store(true);
    });
    ran_inside_submit = !order.empty();
  });
  for (int spin = 0; spin < 2000 && !done.load(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  net.Stop();
  EXPECT_FALSE(ran_inside_submit);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(TcpOffloadTest, TwoNodesWorksRunAtTheSameTime) {
  if (StrandPool::DefaultWorkers() < 2) {
    GTEST_SKIP() << "one worker on a one-core host";
  }
  TcpNet net;
  TcpTransport* a = net.AddNode().value();
  TcpTransport* b = net.AddNode().value();
  net.Start();
  // Each work releases its own latch and waits for the other's: run one
  // after the other, the first would time out.
  Latch a_running, b_running;
  std::atomic<bool> a_saw_b{false}, b_saw_a{false}, done_a{false},
      done_b{false};
  net.Run([&]() {
    a->Offload(
        [&]() {
          a_running.Release();
          a_saw_b.store(b_running.WaitFor(std::chrono::seconds(5)));
        },
        [&]() { done_a.store(true); });
    b->Offload(
        [&]() {
          b_running.Release();
          b_saw_a.store(a_running.WaitFor(std::chrono::seconds(5)));
        },
        [&]() { done_b.store(true); });
  });
  EXPECT_TRUE(SpinUntil(done_a));
  EXPECT_TRUE(SpinUntil(done_b));
  net.Stop();
  EXPECT_TRUE(a_saw_b.load());
  EXPECT_TRUE(b_saw_a.load());
}

TEST(TcpOffloadTest, OneNodesWorksNeverOverlapAndKeepSubmissionOrder) {
  TcpNet net;
  TcpTransport* a = net.AddNode().value();
  net.Start();
  constexpr int kWorks = 40;
  std::atomic<int> running{0};
  std::atomic<bool> overlapped{false};
  std::mutex mu;
  std::vector<int> order;
  std::vector<int> continued;
  std::atomic<bool> all_done{false};
  net.Run([&]() {
    for (int i = 0; i < kWorks; ++i) {
      a->Offload(
          [&, i]() {
            if (running.fetch_add(1) != 0) overlapped.store(true);
            const auto until =
                std::chrono::steady_clock::now() + std::chrono::microseconds(200);
            while (std::chrono::steady_clock::now() < until) {
            }
            {
              std::lock_guard<std::mutex> lock(mu);
              order.push_back(i);
            }
            running.fetch_sub(1);
          },
          [&, i]() {
            continued.push_back(i);
            if (i == kWorks - 1) all_done.store(true);
          });
    }
  });
  EXPECT_TRUE(SpinUntil(all_done));
  net.Stop();
  EXPECT_FALSE(overlapped.load());
  std::vector<int> expected(kWorks);
  for (int i = 0; i < kWorks; ++i) expected[i] = i;
  EXPECT_EQ(order, expected);
  EXPECT_EQ(continued, expected);
}

TEST(TcpOffloadTest, ContinuationRunsOnTheReactorAfterItsWork) {
  TcpNet net;
  TcpTransport* a = net.AddNode().value();
  net.Start();
  std::atomic<bool> work_done{false};
  std::atomic<bool> work_on_reactor{true};
  std::atomic<bool> then_on_reactor{false};
  std::atomic<bool> then_after_work{false};
  std::atomic<bool> finished{false};
  net.Run([&]() {
    a->Offload(
        [&]() {
          work_on_reactor.store(net.reactor().OnReactorThread());
          work_done.store(true);
        },
        [&]() {
          then_on_reactor.store(net.reactor().OnReactorThread());
          then_after_work.store(work_done.load());
          finished.store(true);
        });
  });
  EXPECT_TRUE(SpinUntil(finished));
  net.Stop();
  EXPECT_FALSE(work_on_reactor.load());
  EXPECT_TRUE(then_on_reactor.load());
  EXPECT_TRUE(then_after_work.load());
}

TEST(TcpOffloadTest, StopDropsQueuedWorkAndRunsNoContinuationAfter) {
  TcpNet net;
  TcpTransport* a = net.AddNode().value();
  net.Start();
  std::atomic<bool> first_started{false};
  std::atomic<bool> first_finished{false};
  std::atomic<int> works{0};
  std::atomic<int> continuations{0};
  net.Run([&]() {
    a->Offload(
        [&]() {
          first_started.store(true);
          ++works;
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          first_finished.store(true);
        },
        [&]() { ++continuations; });
    for (int i = 0; i < 5; ++i) {
      a->Offload([&]() { ++works; }, [&]() { ++continuations; });
    }
  });
  ASSERT_TRUE(SpinUntil(first_started));
  net.Stop();  // The first work is in flight; five are queued behind it.
  const int after_stop = continuations.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(first_finished.load());
  EXPECT_EQ(works.load(), 1);
  EXPECT_LE(after_stop, 1);
  EXPECT_EQ(continuations.load(), after_stop);
}

TEST(TcpTransportTest, ClockTimersFire) {
  TcpNet net;
  net.AddNode().value();
  net.Start();
  std::atomic<bool> fired{false};
  net.clock().ScheduleAfter(Millis(2), [&]() { fired.store(true); });
  for (int spin = 0; spin < 2000 && !fired.load(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  net.Stop();
  EXPECT_TRUE(fired.load());
}

}  // namespace
}  // namespace bestpeer::net
