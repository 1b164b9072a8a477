#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/backoff.h"
#include "net/frame.h"
#include "net/reactor.h"
#include "net/tcp_transport.h"
#include "util/metrics.h"

namespace bestpeer::net {
namespace {

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
  // payload_len lives at offset 28 (little-endian): claim 2 MiB against a
  // 1 MiB cap.
  wire[28] = 0;
  wire[29] = 0;
  wire[30] = 0x20;
  wire[31] = 0;
  EXPECT_FALSE(
      DecodeFrameHeader(wire.data(), wire.size(), 1 << 20).ok());
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
